#include "cluster/spawn.hh"

#include <dirent.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "server/client.hh"
#include "server/stats.hh"
#include "support/logging.hh"

namespace interp::cluster {

LocalCluster::LocalCluster(const ClusterConfig &config) : cfg(config)
{
    if (cfg.shardCount == 0)
        fatal("cluster: need at least one shard");
}

LocalCluster::~LocalCluster()
{
    stopAll();
    removeTempDir();
}

void
LocalCluster::removeTempDir()
{
    if (dir_.empty())
        return;
    // Unlinking only the paths this object handed out is not enough:
    // a start() that fatal()ed midway may have created sockets this
    // object never recorded, and any survivor makes a blind rmdir()
    // fail silently and leak the whole /tmp/interproxy-* directory.
    // Sweep everything.
    if (DIR *d = ::opendir(dir_.c_str())) {
        while (struct dirent *ent = ::readdir(d)) {
            if (!std::strcmp(ent->d_name, ".") ||
                !std::strcmp(ent->d_name, ".."))
                continue;
            std::string path = dir_ + "/" + ent->d_name;
            ::unlink(path.c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir_.c_str());
    dir_.clear();
    proxyPath_.clear();
    shardPaths_.clear();
}

void
LocalCluster::waitConnectable(const std::string &path)
{
    // A bound-and-listening unix socket accepts immediately; poll
    // for it so a listener still coming up gets time to reach
    // listen().
    for (int attempt = 0; attempt < 500; ++attempt) {
        int fd = server::Endpoint{path}.connect();
        if (fd >= 0) {
            ::close(fd);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    fatal("cluster: shard socket %s never became connectable",
          path.c_str());
}

void
LocalCluster::spawnShard(size_t i)
{
    ShardProc &p = procs_[i];
    server::ServerConfig sc;
    sc.unixPath = shardPaths_[i];
    sc.workers = cfg.workersPerShard;
    sc.maxQueue = cfg.maxQueuePerShard;
    sc.shardId = "s" + std::to_string(i);
    sc.tier = cfg.tierPerShard;
    p.server = std::make_unique<server::Server>(sc);
    p.server->start();
    p.thread = std::thread([srv = p.server.get()] { srv->run(); });
}

void
LocalCluster::start()
{
    char tmpl[] = "/tmp/interproxy-XXXXXX";
    if (!::mkdtemp(tmpl))
        fatal("cluster: mkdtemp: %s", std::strerror(errno));
    dir_ = tmpl;
    proxyPath_ = dir_ + "/proxy.sock";

    shardPaths_.resize(cfg.shardCount);
    procs_.resize(cfg.shardCount);
    cfg.proxy.shards.clear();
    for (size_t i = 0; i < cfg.shardCount; ++i) {
        shardPaths_[i] = dir_ + "/shard" + std::to_string(i) + ".sock";
        ShardEndpoint ep;
        ep.name = "s" + std::to_string(i);
        ep.path = shardPaths_[i];
        cfg.proxy.shards.push_back(std::move(ep));
    }
    for (size_t i = 0; i < cfg.shardCount; ++i)
        spawnShard(i);

    cfg.proxy.unixPath = proxyPath_;
    proxy_ = std::make_unique<Proxy>(cfg.proxy);
    proxy_->start();
    proxyThread_ = std::thread([p = proxy_.get()] { p->run(); });
    waitConnectable(proxyPath_);
    // Connectable is not routable: a shard takes traffic once it has
    // answered the proxy's first probe, so the first request never
    // reroutes around a shard still coming up.
    server::Client client = server::Client::connectUnix(proxyPath_);
    for (int attempt = 0;; ++attempt) {
        uint64_t up = 0;
        server::statsJsonUint(client.stats(), "proxy.shards_up", up);
        if (up == cfg.shardCount)
            break;
        if (attempt == 5000)
            fatal("cluster: proxy reports %llu of %u shards up",
                  (unsigned long long)up, cfg.shardCount);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    started_ = true;
}

void
LocalCluster::killShard(size_t i)
{
    ShardProc &p = procs_.at(i);
    if (!p.server)
        return;
    p.server->stop();
    p.thread.join();
    p.server.reset();
    ::unlink(shardPaths_[i].c_str());
}

void
LocalCluster::restartShard(size_t i)
{
    if (procs_.at(i).server)
        return;
    spawnShard(i);
    waitConnectable(shardPaths_[i]);
}

void
LocalCluster::stopAll()
{
    if (proxy_) {
        proxy_->stop();
        if (proxyThread_.joinable())
            proxyThread_.join();
        proxy_.reset();
    }
    for (size_t i = 0; i < procs_.size(); ++i)
        killShard(i);
    started_ = false;
}

} // namespace interp::cluster
