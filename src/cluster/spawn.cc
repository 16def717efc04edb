#include "cluster/spawn.hh"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

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
    // a SIGKILL'd subprocess shard never removes its bound socket, a
    // respawn re-binds the same name, and a start() that fatal()ed
    // midway may have created sockets this object never recorded. Any
    // survivor makes the old blind rmdir() fail silently and leaks
    // the whole /tmp/interproxy-* directory. Sweep everything.
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
    // for it so subprocess shards get time to reach listen().
    for (int attempt = 0; attempt < 500; ++attempt) {
        int fd = server::Endpoint{path, -1}.connect();
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
    if (cfg.interpdPath.empty()) {
        server::ServerConfig sc;
        sc.unixPath = shardPaths_[i];
        sc.workers = cfg.workersPerShard;
        sc.maxQueue = cfg.maxQueuePerShard;
        sc.maxBatch = cfg.maxBatchPerShard;
        sc.shardId = "s" + std::to_string(i);
        sc.tier = cfg.tierPerShard;
        p.server = std::make_unique<server::Server>(sc);
        p.server->start();
        p.thread = std::thread([srv = p.server.get()] { srv->run(); });
        p.alive = true;
        return;
    }

    pid_t pid = ::fork();
    if (pid < 0)
        fatal("cluster: fork: %s", std::strerror(errno));
    if (pid == 0) {
        std::string workers = std::to_string(cfg.workersPerShard);
        std::string queue = std::to_string(cfg.maxQueuePerShard);
        std::string batch = std::to_string(cfg.maxBatchPerShard);
        std::string shard_id = "s" + std::to_string(i);
        std::string remedy_after =
            std::to_string(cfg.tierPerShard.remedyAfter);
        std::string tier2_after =
            std::to_string(cfg.tierPerShard.tier2After);
        std::string jit_after =
            std::to_string(cfg.tierPerShard.jitAfter);
        std::string per_point =
            std::to_string(cfg.tierPerShard.commandsPerPoint);
        std::string decay =
            std::to_string(cfg.tierPerShard.decayEvery);
        if (cfg.tierPerShard.enabled)
            ::execl(cfg.interpdPath.c_str(), cfg.interpdPath.c_str(),
                    "--socket", shardPaths_[i].c_str(), "--workers",
                    workers.c_str(), "--queue", queue.c_str(),
                    "--batch", batch.c_str(), "--shard-id",
                    shard_id.c_str(), "--tierup",
                    "--tier-remedy-after", remedy_after.c_str(),
                    "--tier-tier2-after", tier2_after.c_str(),
                    "--tier-jit-after", jit_after.c_str(),
                    "--tier-commands-per-point", per_point.c_str(),
                    "--tier-decay-every", decay.c_str(),
                    (char *)nullptr);
        else
            ::execl(cfg.interpdPath.c_str(), cfg.interpdPath.c_str(),
                    "--socket", shardPaths_[i].c_str(), "--workers",
                    workers.c_str(), "--queue", queue.c_str(),
                    "--batch", batch.c_str(), "--shard-id",
                    shard_id.c_str(), (char *)nullptr);
        // exec failed; nothing sane to do in the child but leave.
        ::_exit(127);
    }
    p.pid = pid;
    p.alive = true;
    waitConnectable(shardPaths_[i]);
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
        ep.unixPath = shardPaths_[i];
        cfg.proxy.shards.push_back(std::move(ep));
    }
    for (size_t i = 0; i < cfg.shardCount; ++i)
        spawnShard(i);

    cfg.proxy.unixPath = proxyPath_;
    proxy_ = std::make_unique<Proxy>(cfg.proxy);
    proxy_->start();
    proxyThread_ = std::thread([p = proxy_.get()] { p->run(); });
    waitConnectable(proxyPath_);
    started_ = true;
}

void
LocalCluster::killShard(size_t i)
{
    ShardProc &p = procs_.at(i);
    if (!p.alive)
        return;
    if (p.server) {
        p.server->stop();
        p.thread.join();
        p.server.reset();
    } else if (p.pid > 0) {
        ::kill(p.pid, SIGKILL);
        ::waitpid(p.pid, nullptr, 0);
        p.pid = -1;
    }
    ::unlink(shardPaths_[i].c_str());
    p.alive = false;
}

void
LocalCluster::restartShard(size_t i)
{
    ShardProc &p = procs_.at(i);
    if (p.alive)
        return;
    spawnShard(i);
    if (p.server)
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
