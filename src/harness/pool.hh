/**
 * @file
 * Fixed-size work-queue thread pool for the benchmark harness.
 *
 * Every benchmark run of the paper's evaluation is independent — its
 * own trace::Profile, sim::Machine, vfs::FileSystem and sinks — so the
 * {MIPSI, Java, Perl, Tcl} x {micro, macro} x {cache configs} cross
 * product parallelizes trivially once the shared-state audit holds
 * (thread-safe logging, deterministic address mapping, per-run VFS).
 * This pool is that execution vehicle: submit() enqueues a job, the
 * workers drain the queue, wait() blocks until everything submitted so
 * far has finished. Jobs must not throw; the higher-level helpers in
 * parallel.hh convert exceptions into failed Measurements before the
 * job reaches the pool.
 */

#ifndef INTERP_HARNESS_POOL_HH
#define INTERP_HARNESS_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace interp::harness {

/** Fixed set of worker threads draining a FIFO job queue. */
class ThreadPool
{
  public:
    /** Start @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Runs every queued job, then joins the workers. A job that must
     *  not run at shutdown checks a flag of its own (interpd's do). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. The job must not throw. */
    void submit(std::function<void()> job);

    /** Block until every job submitted so far has completed. */
    void wait();

    unsigned threadCount() const { return (unsigned)workers.size(); }

    /**
     * Jobs sitting in the queue, not yet picked up by a worker.
     * A point-in-time gauge for admission control and stats: interpd
     * runs each admitted request as one job and sheds when this
     * reaches its bound. Workers only ever lower the count, so a lone
     * submitter's check-then-submit keeps the bound; with concurrent
     * submitters the value is stale the moment it returns.
     */
    size_t queuedCount() const;

    /** Workers not currently executing a job (same staleness caveat). */
    unsigned idleWorkers() const;

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    mutable std::mutex mu;
    std::condition_variable workCv; ///< workers: queue non-empty or stop
    std::condition_variable idleCv; ///< wait(): queue empty and none running
    size_t running = 0;             ///< jobs currently executing
    bool stopping = false;
};

} // namespace interp::harness

#endif // INTERP_HARNESS_POOL_HH
