/**
 * @file
 * Shard-spawning harness for cluster tests and benchmarks.
 *
 * LocalCluster brings up N interpd shards plus one interproxy router
 * on unix-domain sockets under a private temp directory, and tears
 * everything down (and unlinks the sockets) on destruction. Each
 * shard is a server::Server on its own thread in this process: fast
 * to start and easy to kill mid-run. (perfbench drives the real
 * interpd and interproxy binaries as separate processes.)
 *
 * killShard() stops one shard abruptly so failover paths can be
 * exercised; restartShard() brings it back on the same socket path.
 */

#ifndef INTERP_CLUSTER_SPAWN_HH
#define INTERP_CLUSTER_SPAWN_HH

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/proxy.hh"
#include "server/server.hh"

namespace interp::cluster {

struct ClusterConfig
{
    unsigned shardCount = 2;
    /** server::ServerConfig knobs applied to every shard. */
    unsigned workersPerShard = 2;
    size_t maxQueuePerShard = 64;
    /** Dynamic tier-up config applied to every shard. */
    tier::TierConfig tierPerShard;
    /** Router knobs; the front socket and shard endpoints are filled
     *  in by start() (shards live on unix sockets in a temp
     *  directory). */
    ProxyConfig proxy;
};

class LocalCluster
{
  public:
    explicit LocalCluster(const ClusterConfig &config);

    /** Stops everything still running; removes sockets and the temp
     *  directory. */
    ~LocalCluster();

    LocalCluster(const LocalCluster &) = delete;
    LocalCluster &operator=(const LocalCluster &) = delete;

    /** Spawn every shard, then the proxy; returns once the proxy
     *  listener accepts and the proxy reports every shard up.
     *  fatal() on setup failure. */
    void start();

    /** Stop the proxy and every shard (idempotent). */
    void stopAll();

    /** Abruptly stop shard @p i and unlink its socket, so the proxy
     *  sees connections die and reconnects fail — the failover
     *  path. */
    void killShard(size_t i);

    /** Bring shard @p i back on its original socket path. */
    void restartShard(size_t i);

    /** Front unix socket of the router (connect clients here). */
    const std::string &proxyPath() const { return proxyPath_; }

    /** The private temp directory ("" before start() / after
     *  teardown). Tests assert it leaves no /tmp residue behind. */
    const std::string &tempDir() const { return dir_; }

    /** Unix socket of shard @p i (for direct-to-shard checks). */
    const std::string &shardPath(size_t i) const
    {
        return shardPaths_[i];
    }

    size_t shardCount() const { return shardPaths_.size(); }

  private:
    struct ShardProc
    {
        std::unique_ptr<server::Server> server;
        std::thread thread;
    };

    void spawnShard(size_t i);
    void waitConnectable(const std::string &path);
    /** Sweep and remove the temp directory (idempotent): unlink every
     *  remaining entry — not just the paths this object created — so
     *  sockets left bound by SIGKILL'd shards, or anything a failed
     *  start() got as far as creating, never outlive the cluster. */
    void removeTempDir();

    ClusterConfig cfg;
    std::string dir_; ///< private temp directory holding all sockets
    std::string proxyPath_;
    std::vector<std::string> shardPaths_;
    std::vector<ShardProc> procs_;

    std::unique_ptr<Proxy> proxy_;
    std::thread proxyThread_;
    bool started_ = false;
};

} // namespace interp::cluster

#endif // INTERP_CLUSTER_SPAWN_HH
