#include "sim/machine.hh"

#include "support/logging.hh"

namespace interp::sim {

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::Other: return "other";
      case StallCause::ShortInt: return "short int";
      case StallCause::LoadDelay: return "load delay";
      case StallCause::Mispredict: return "mispredict";
      case StallCause::Dtlb: return "dtlb";
      case StallCause::Itlb: return "itlb";
      case StallCause::Dmiss: return "dmiss";
      case StallCause::Imiss: return "imiss";
      default: return "?";
    }
}

namespace {

/** A TLB is a Cache with one fully associative set of page-sized lines. */
CacheConfig
tlbGeometry(uint32_t entries, uint32_t page_bits)
{
    return {entries << page_bits, entries, 1u << page_bits};
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : cfg(config), il1(config.icache), dl1(config.dcache), l2(config.l2),
      itlb_(tlbGeometry(config.itlbEntries, config.pageBits)),
      dtlb_(tlbGeometry(config.dtlbEntries, config.pageBits)),
      bp(config.branch)
{
    if (cfg.issueWidth == 0)
        panic("issue width must be nonzero");
    // simulateBatch divides by each use-delay period.
    if (cfg.loadUsePeriod == 0 || cfg.shortIntUsePeriod == 0 ||
        cfg.floatUsePeriod == 0)
        panic("use-delay periods must be nonzero");
    // Cache's constructor has already rejected non-power-of-two line
    // sizes, so the shift is exact.
    ilineShift = (uint32_t)__builtin_ctz(cfg.icache.lineBytes);
    if (cfg.shadowCheck) {
        MachineConfig shadow_cfg = cfg;
        shadow_cfg.shadowCheck = false; // one level of shadowing
        shadow = std::make_unique<Machine>(shadow_cfg);
    }
}

void
Machine::addStall(StallCause cause, uint64_t cycles_)
{
    // The ledger is slot-denominated: a stall cycle idles the whole
    // issue width.
    stallSlots[(int)cause] += cycles_ * cfg.issueWidth;
}

void
Machine::fetch(uint32_t pc, uint32_t count)
{
    // An empty bundle fetches nothing; without this guard the
    // (count - 1) below underflows and walks ~2^30 i-cache lines.
    if (count == 0)
        return;
    uint32_t last = (pc + (count - 1) * 4) >> ilineShift;
    for (uint32_t line = pc >> ilineShift; line <= last; ++line) {
        if (line == lastFetchLine)
            continue;
        lastFetchLine = line;
        uint32_t addr = line << ilineShift;
        uint64_t page = addr >> cfg.pageBits;
        if (page != lastFetchPage) {
            lastFetchPage = page;
            if (!itlb_.access(addr))
                addStall(StallCause::Itlb, cfg.tlbMissPenalty);
        }
        if (!il1.access(addr)) {
            ++imisses;
            addStall(StallCause::Imiss, l2.access(addr)
                                            ? cfg.l1MissPenalty
                                            : cfg.l2MissPenalty);
        }
    }
}

void
Machine::dataAccess(uint32_t addr)
{
    if (!dtlb_.access(addr))
        addStall(StallCause::Dtlb, cfg.tlbMissPenalty);
    if (!dl1.access(addr)) {
        addStall(StallCause::Dmiss,
                 l2.access(addr) ? cfg.l1MissPenalty : cfg.l2MissPenalty);
    }
}

void
Machine::simulateOne(const trace::Bundle &bundle)
{
    using trace::InstClass;

    fetch(bundle.pc, bundle.count);
    insts += bundle.count;

    switch (bundle.cls) {
      case InstClass::IntAlu:
      case InstClass::Nop:
        break;
      case InstClass::ShortInt:
        for (uint32_t i = 0; i < bundle.count; ++i) {
            if (++shortTick >= cfg.shortIntUsePeriod) {
                shortTick = 0;
                addStall(StallCause::ShortInt, cfg.shortIntCycles);
            }
        }
        break;
      case InstClass::FloatOp:
        for (uint32_t i = 0; i < bundle.count; ++i) {
            if (++floatTick >= cfg.floatUsePeriod) {
                floatTick = 0;
                addStall(StallCause::Other, cfg.floatOpCycles);
            }
        }
        break;
      case InstClass::Load:
        dataAccess(bundle.memAddr);
        if (++loadTick >= cfg.loadUsePeriod) {
            loadTick = 0;
            addStall(StallCause::LoadDelay, cfg.loadDelayCycles);
        }
        break;
      case InstClass::Store:
        dataAccess(bundle.memAddr);
        break;
      case InstClass::CondBranch:
        if (!bp.predictConditional(bundle.pc, bundle.taken))
            addStall(StallCause::Mispredict, cfg.mispredictPenalty);
        break;
      case InstClass::Jump:
        break;
      case InstClass::IndirectJump:
        if (!bp.predictIndirect(bundle.pc, bundle.target))
            addStall(StallCause::Mispredict, cfg.mispredictPenalty);
        break;
      case InstClass::Call:
        bp.call(bundle.pc + 4);
        break;
      case InstClass::Return:
        if (!bp.predictReturn(bundle.target))
            addStall(StallCause::Mispredict, cfg.mispredictPenalty);
        break;
    }
}

void
Machine::simulateBatch(const trace::BundleBatch &batch)
{
    using trace::BundleBatch;
    using trace::InstClass;

    const uint32_t n = batch.size();
    const uint32_t *pc = batch.pcCol();
    const uint32_t *cnt = batch.countCol();
    const uint32_t *memAddr = batch.memAddrCol();
    const uint32_t *target = batch.targetCol();
    const uint8_t *clsCat = batch.clsCatCol();
    const uint8_t *flags = batch.flagsCol();

    // Use-delay instances, charged once for the whole batch: the
    // ticks feed no other counter, so only their totals matter.
    uint64_t loads = 0, shortInts = 0, floatOps = 0;
    for (uint32_t i = 0; i != n; ++i) {
        const uint32_t count = cnt[i];
        insts += count;
        // Most bundles stay on the last fetched line; only one that
        // leaves it walks its lines. An empty bundle fetches nothing.
        if (count != 0) {
            uint32_t first = pc[i] >> ilineShift;
            uint32_t last = (pc[i] + (count - 1) * 4) >> ilineShift;
            if (first != lastFetchLine || last != first)
                fetch(pc[i], count);
        }

        switch (BundleBatch::cls(clsCat[i])) {
          case InstClass::IntAlu:
          case InstClass::Nop:
          case InstClass::Jump:
            break;
          case InstClass::ShortInt:
            shortInts += count;
            break;
          case InstClass::FloatOp:
            floatOps += count;
            break;
          case InstClass::Load:
            ++loads;
            dataAccess(memAddr[i]);
            break;
          case InstClass::Store:
            dataAccess(memAddr[i]);
            break;
          case InstClass::CondBranch:
            if (!bp.predictConditional(
                    pc[i], (flags[i] & BundleBatch::kTakenBit) != 0))
                addStall(StallCause::Mispredict, cfg.mispredictPenalty);
            break;
          case InstClass::IndirectJump:
            if (!bp.predictIndirect(pc[i], target[i]))
                addStall(StallCause::Mispredict, cfg.mispredictPenalty);
            break;
          case InstClass::Call:
            bp.call(pc[i] + 4);
            break;
          case InstClass::Return:
            if (!bp.predictReturn(target[i]))
                addStall(StallCause::Mispredict, cfg.mispredictPenalty);
            break;
        }
    }

    // Closed form of simulateOne's every-Nth-instance charge: the tick
    // wraps at period, charging once per wrap.
    auto charge = [this](uint64_t instances, uint32_t &tick,
                         uint32_t period, StallCause cause,
                         uint32_t cycles_) {
        if (instances == 0)
            return;
        uint64_t ticks = tick + instances;
        tick = (uint32_t)(ticks % period);
        addStall(cause, ticks / period * cycles_);
    };
    charge(loads, loadTick, cfg.loadUsePeriod, StallCause::LoadDelay,
           cfg.loadDelayCycles);
    charge(shortInts, shortTick, cfg.shortIntUsePeriod,
           StallCause::ShortInt, cfg.shortIntCycles);
    charge(floatOps, floatTick, cfg.floatUsePeriod, StallCause::Other,
           cfg.floatOpCycles);
}

void
Machine::crossCheck(const trace::BundleBatch &batch)
{
    for (uint32_t i = 0; i < batch.size(); ++i)
        shadow->simulateOne(batch.get(i));
    compareWithShadow();
}

void
Machine::compareWithShadow()
{
    auto mismatch = [this](const char *what, uint64_t batched,
                           uint64_t reference) {
        if (batched != reference)
            fatal("INTERP_SIM_CHECK: batched machine diverged from "
                  "bundle-at-a-time shadow: %s = %llu, shadow has %llu",
                  what, (unsigned long long)batched,
                  (unsigned long long)reference);
    };
    mismatch("instructions", insts, shadow->insts);
    for (int c = 0; c < kNumStallCauses; ++c)
        mismatch(stallCauseName((StallCause)c), stallSlots[c],
                 shadow->stallSlots[c]);
    mismatch("imisses", imisses, shadow->imisses);
    mismatch("icache accesses", il1.accesses(), shadow->il1.accesses());
    mismatch("icache misses", il1.misses(), shadow->il1.misses());
    mismatch("dcache accesses", dl1.accesses(), shadow->dl1.accesses());
    mismatch("dcache misses", dl1.misses(), shadow->dl1.misses());
    mismatch("l2 accesses", l2.accesses(), shadow->l2.accesses());
    mismatch("l2 misses", l2.misses(), shadow->l2.misses());
    mismatch("itlb misses", itlb_.misses(), shadow->itlb_.misses());
    mismatch("dtlb misses", dtlb_.misses(), shadow->dtlb_.misses());
    mismatch("branch lookups", bp.lookups(), shadow->bp.lookups());
    mismatch("branch mispredicts", bp.mispredicts(),
             shadow->bp.mispredicts());
}

void
Machine::onBatch(const trace::BundleBatch &batch)
{
    simulateBatch(batch);
    if (shadow)
        crossCheck(batch);
}

uint64_t
Machine::totalSlots() const
{
    uint64_t total = insts;
    for (uint64_t s : stallSlots)
        total += s;
    return total;
}

uint64_t
Machine::cycles() const
{
    // Ceil: a final partially-filled issue group still takes a cycle.
    return (totalSlots() + cfg.issueWidth - 1) / cfg.issueWidth;
}

SlotBreakdown
Machine::breakdown() const
{
    SlotBreakdown out;
    uint64_t slots = totalSlots();
    if (slots == 0)
        return out;
    // One denominator for every column: percentages sum to 100 by
    // construction (the ledger covers each slot exactly once).
    out.busyPct = 100.0 * (double)insts / (double)slots;
    for (int c = 0; c < kNumStallCauses; ++c)
        out.stallPct[c] = 100.0 * (double)stallSlots[c] / (double)slots;
    return out;
}

double
Machine::imissPer100Insts() const
{
    return insts ? 100.0 * (double)imisses / (double)insts : 0.0;
}

} // namespace interp::sim
