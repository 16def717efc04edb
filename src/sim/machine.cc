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

    auto fetchAt = [&](uint32_t i) {
        insts += cnt[i];
        fetch(pc[i], cnt[i]);
    };

    uint32_t i = 0;
    while (i != n) {
        // Hoist the class switch out of runs of same-class bundles:
        // interpreter traces are dominated by long alternations of a
        // few classes, so the per-bundle work below is branch-light.
        const InstClass cls = BundleBatch::cls(clsCat[i]);
        uint32_t run = i + 1;
        while (run != n && BundleBatch::cls(clsCat[run]) == cls)
            ++run;

        switch (cls) {
          case InstClass::IntAlu:
          case InstClass::Nop:
          case InstClass::Jump:
            for (; i != run; ++i)
                fetchAt(i);
            break;
          case InstClass::ShortInt: {
            uint64_t m = 0;
            for (; i != run; ++i) {
                fetchAt(i);
                m += cnt[i];
            }
            // Closed form of the every-Nth-instance charge: the tick
            // wraps at shortIntUsePeriod, charging once per wrap.
            uint64_t wraps = (shortTick + m) / cfg.shortIntUsePeriod;
            shortTick = (uint32_t)((shortTick + m) % cfg.shortIntUsePeriod);
            addStall(StallCause::ShortInt, wraps * cfg.shortIntCycles);
            break;
          }
          case InstClass::FloatOp: {
            uint64_t m = 0;
            for (; i != run; ++i) {
                fetchAt(i);
                m += cnt[i];
            }
            uint64_t wraps = (floatTick + m) / cfg.floatUsePeriod;
            floatTick = (uint32_t)((floatTick + m) % cfg.floatUsePeriod);
            addStall(StallCause::Other, wraps * cfg.floatOpCycles);
            break;
          }
          case InstClass::Load:
            for (; i != run; ++i) {
                fetchAt(i);
                dataAccess(memAddr[i]);
                if (++loadTick >= cfg.loadUsePeriod) {
                    loadTick = 0;
                    addStall(StallCause::LoadDelay, cfg.loadDelayCycles);
                }
            }
            break;
          case InstClass::Store:
            for (; i != run; ++i) {
                fetchAt(i);
                dataAccess(memAddr[i]);
            }
            break;
          case InstClass::CondBranch:
            for (; i != run; ++i) {
                fetchAt(i);
                bool taken = (flags[i] & BundleBatch::kTakenBit) != 0;
                if (!bp.predictConditional(pc[i], taken))
                    addStall(StallCause::Mispredict,
                             cfg.mispredictPenalty);
            }
            break;
          case InstClass::IndirectJump:
            for (; i != run; ++i) {
                fetchAt(i);
                if (!bp.predictIndirect(pc[i], target[i]))
                    addStall(StallCause::Mispredict,
                             cfg.mispredictPenalty);
            }
            break;
          case InstClass::Call:
            for (; i != run; ++i) {
                fetchAt(i);
                bp.call(pc[i] + 4);
            }
            break;
          case InstClass::Return:
            for (; i != run; ++i) {
                fetchAt(i);
                if (!bp.predictReturn(target[i]))
                    addStall(StallCause::Mispredict,
                             cfg.mispredictPenalty);
            }
            break;
        }
    }
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
