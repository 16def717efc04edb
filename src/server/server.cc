#include "server/server.hh"

#include <chrono>

#include "harness/record_replay.hh"
#include "minic/compile.hh"
#include "support/logging.hh"
#include "trace/execution.hh"

namespace interp::server {

using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

namespace {

uint64_t
elapsedMicros(steady_clock::time_point from, steady_clock::time_point to)
{
    return (uint64_t)duration_cast<microseconds>(to - from).count();
}

std::string
catalogKey(harness::Lang base, const std::string &name)
{
    return std::string(harness::langName(base)) + "/" + name;
}

} // namespace

// --- ProgramCatalog --------------------------------------------------------

void
ProgramCatalog::ensureLoaded()
{
    if (loaded)
        return;
    for (harness::BenchSpec &spec : harness::macroSuite()) {
        std::string key = catalogKey(spec.lang, spec.name);
        macro.emplace(std::move(key), std::move(spec));
    }
    loaded = true;
}

harness::BenchSpec
ProgramCatalog::resolve(harness::Lang mode, const std::string &name,
                        uint32_t iterations)
{
    using harness::Lang;
    Lang base = harness::modeInfo(mode).baseline;
    std::lock_guard<std::mutex> lock(mu);

    if (name.rfind("micro:", 0) == 0) {
        std::string op = name.substr(6);
        int iters = iterations ? (int)iterations
                               : harness::microIterations(base);
        std::string key =
            catalogKey(base, op) + "/" + std::to_string(iters);
        auto it = micro.find(key);
        harness::BenchSpec spec;
        if (it != micro.end()) {
            ++counters_.hits;
            spec = it->second;
        } else {
            ++counters_.misses;
            ++counters_.loads;
            // microBench fatal()s on an unknown op; the caller's
            // ScopedFatalThrow turns that into an ERROR response.
            spec = harness::microBench(base, op, iters);
            if (base == Lang::Java)
                spec.module = std::make_shared<const jvm::Module>(
                    minic::compileBytecode(spec.source, spec.name));
            // The client picks the iteration count, so the keys are
            // unbounded: past the cap a new key is built per request.
            if (micro.size() < kMaxMicroEntries)
                micro.emplace(std::move(key), spec);
        }
        spec.lang = mode;
        return spec;
    }

    ensureLoaded();
    auto it = macro.find(catalogKey(base, name));
    // The C column of the macro suite only has des; the other MiniC
    // programs are shared with MIPSI, so fall through to those specs.
    if (it == macro.end() && base == Lang::C)
        it = macro.find(catalogKey(Lang::Mipsi, name));
    if (it == macro.end())
        fatal("interpd: unknown %s benchmark \"%s\"",
              harness::langName(base), name.c_str());

    harness::BenchSpec &cached = it->second;
    Lang cached_base = harness::modeInfo(cached.lang).baseline;
    if ((cached_base == Lang::C || cached_base == Lang::Mipsi) &&
        !cached.image) {
        ++counters_.misses;
        ++counters_.loads;
        // Warm instance: assemble the guest image once and share it
        // across every later request for this program.
        cached.image = std::make_shared<mips::Image>(
            minic::compileMips(cached.source, cached.name));
    } else if (cached_base == Lang::Java && !cached.module) {
        ++counters_.misses;
        ++counters_.loads;
        // Compile the jvm module once and share it. Sharing is safe
        // only because requests never mutate it: jvm-quick quickens a
        // private copy, tier-2 runs an immutable artifact, and
        // jvm::Vm refuses in-place quickening of a shared module
        // outright.
        cached.module = std::make_shared<const jvm::Module>(
            minic::compileBytecode(cached.source, cached.name));
    } else {
        ++counters_.hits;
    }
    harness::BenchSpec spec = cached;
    spec.lang = mode;
    return spec;
}

CatalogCounters
ProgramCatalog::counters() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters_;
}

// --- Server lifecycle ------------------------------------------------------

Server::Server(const ServerConfig &config)
    : cfg(config), tierMgr(config.tier),
      front("interpd", [this](uint64_t conn, const std::string &payload) {
          handleFrame(conn, payload);
      })
{
}

Server::~Server()
{
    // ~ThreadPool runs every queued job before it joins; with the flag
    // set they return at once, so unstarted requests die with the
    // daemon and only the running ones are waited for.
    closing.store(true, std::memory_order_release);
    pool.reset();
}

void
Server::start()
{
    front.listen(cfg.unixPath);
    pool = std::make_unique<harness::ThreadPool>(cfg.workers);
}

void
Server::stop()
{
    front.stop();
}

// --- event loop ------------------------------------------------------------

void
Server::run()
{
    std::vector<pollfd> none;
    while (front.poll(none, -1))
        drainCompletions();
}

void
Server::drainCompletions()
{
    std::vector<Completion> done;
    {
        std::lock_guard<std::mutex> lock(completionMu);
        done.swap(completions);
    }
    for (Completion &c : done)
        front.reply(c.connId, c.resp);
}

void
Server::handleFrame(uint64_t conn_id, const std::string &payload)
{
    switch (requestVerb(payload)) {
      case (uint8_t)Verb::Eval: {
        EvalRequest req;
        if (!decodeEvalRequest(payload, req)) {
            front.close(conn_id);
            return;
        }
        stats_.note(Counter::Accepted, req.mode);
        // This thread is the pool's only submitter, so the queue never
        // grows past the bound between this check and the submit.
        if (pool->queuedCount() < cfg.maxQueue) {
            pool->submit([this, a = Admitted{conn_id, std::move(req),
                                             steady_clock::now()}] {
                serve(a);
            });
        } else {
            stats_.note(Counter::Shed, req.mode);
            EvalResponse resp;
            resp.id = req.id;
            resp.status = Status::Shed;
            resp.result = "admission queue full";
            front.reply(conn_id, resp);
        }
        return;
      }
      case (uint8_t)Verb::Stats: {
        StatsRequest req;
        if (!decodeStatsRequest(payload, req)) {
            front.close(conn_id);
            return;
        }
        EvalResponse resp;
        resp.id = req.id;
        resp.status = Status::Ok;
        resp.result =
            stats_.renderJson(pool->queuedCount(), pool->idleWorkers(),
                              catalog.counters(), cfg.shardId);
        front.reply(conn_id, resp);
        return;
      }
      default:
        front.close(conn_id);
    }
}

// --- execution (worker threads) --------------------------------------------

void
Server::postCompletion(uint64_t conn_id, EvalResponse resp)
{
    {
        std::lock_guard<std::mutex> lock(completionMu);
        completions.push_back({conn_id, std::move(resp)});
    }
    front.wake();
}

void
Server::serve(const Admitted &a)
{
    if (closing.load(std::memory_order_acquire))
        return;
    auto dequeue = steady_clock::now();
    uint64_t queue_us = elapsedMicros(a.arrival, dequeue);
    EvalResponse resp;
    if (a.req.deadlineMs != kNoDeadline &&
        dequeue - a.arrival >= milliseconds(a.req.deadlineMs)) {
        // Expired while queued: answer without executing.
        resp.id = a.req.id;
        resp.status = Status::Deadline;
        resp.queueMicros = queue_us;
        resp.result = "deadline expired before execution";
    } else {
        resp = executeOne(a, queue_us);
    }
    stats_.note(outcomeCounter(resp.status), a.req.mode);
    if (resp.status != Status::Deadline)
        stats_.noteLatency(resp.queueMicros, resp.serviceMicros);
    postCompletion(a.connId, std::move(resp));
}

EvalResponse
Server::executeOne(const Admitted &a, uint64_t queue_us)
{
    const EvalRequest &req = a.req;
    EvalResponse resp;
    resp.id = req.id;
    resp.queueMicros = queue_us;

    auto service_start = steady_clock::now();
    ScopedFatalThrow contain;
    try {
        harness::BenchSpec spec;
        if (req.kind == ProgramKind::Named) {
            spec = catalog.resolve(req.mode, req.program,
                                   req.iterations);
        } else {
            spec.lang = req.mode;
            spec.name = "inline";
            spec.source = req.program;
            spec.needsInputs = (req.flags & kFlagNeedsInputs) != 0;
        }
        spec.maxCommands = req.maxCommands ? req.maxCommands
                                           : cfg.defaultMaxCommands;

        // Dynamic tier-up: a hot named program is promoted to its
        // remedy / tier-2 mode. Only named programs tier (inline
        // sources have no stable identity to accumulate hotness on)
        // and only baseline modes are ever upgraded — a client that
        // asked for a remedy mode gets exactly that mode.
        bool tiering =
            cfg.tier.enabled && req.kind == ProgramKind::Named;
        if (tiering) {
            tier::TierPlan plan = tierMgr.plan(req.mode, req.program);
            if (plan.level > 0) {
                spec.lang = plan.lang;
                stats_.note(Counter::TieredRuns, req.mode);
            }
            if (plan.promotedRemedy)
                stats_.note(Counter::TierUpRemedy, req.mode);
            if (plan.promotedTier2)
                stats_.note(Counter::TierUpTier2, req.mode);
            if (plan.promotedJit)
                stats_.note(Counter::TierUpJit, req.mode);
            spec.tier = std::move(plan.tier);
        }

        // The run's own trace safepoints enforce the deadline.
        if (req.deadlineMs != kNoDeadline)
            spec.deadline = a.arrival + milliseconds(req.deadlineMs);

        bool with_machine = (req.flags & kFlagWithMachine) != 0;
        harness::Measurement m;
        if ((req.flags & kFlagRecordTrace) && !cfg.recordDir.empty()) {
            // Suffix the request id so concurrent requests for the
            // same program never race on one tape.
            harness::BenchSpec tape;
            tape.lang = spec.lang;
            tape.name = spec.name + "-r" + std::to_string(req.id);
            m = harness::recordRun(
                spec, harness::traceFilePath(cfg.recordDir, tape), {},
                nullptr, with_machine);
        } else {
            m = harness::run(spec, {}, nullptr, with_machine);
        }
        if (tiering)
            tierMgr.noteRun(req.mode, req.program, m.commands,
                            spec.tier.collect.get());

        resp.status = Status::Ok;
        resp.commands = m.commands;
        resp.instructions = m.profile.instructions();
        resp.cycles = m.cycles;
        resp.result = std::move(m.stdoutText);
        if (resp.result.size() > kMaxResponseBytes)
            resp.result.resize(kMaxResponseBytes);
    } catch (const trace::DeadlineExpired &) {
        resp.status = Status::Deadline;
        resp.commands = 0;
        resp.instructions = 0;
        resp.cycles = 0;
        resp.result = "deadline expired during execution";
    } catch (const std::exception &e) {
        // FatalError from a poisoned program, bad catalog name, ...
        resp.status = Status::Error;
        resp.commands = 0;
        resp.instructions = 0;
        resp.cycles = 0;
        resp.result = e.what();
    }
    resp.serviceMicros =
        elapsedMicros(service_start, steady_clock::now());
    return resp;
}

} // namespace interp::server
