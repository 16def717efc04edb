#include "jvm/tier2.hh"

#include <algorithm>

#include "jvm/vm.hh"

namespace interp::jvm {

using trace::Category;
using trace::CategoryScope;
using trace::RoutineScope;

uint64_t
PairProfile::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : counts)
        sum += c;
    return sum;
}

namespace {

/** Distinct opcode pairs promoted to superinstructions. */
constexpr size_t kMaxFusedPairs = 4;
/** Minimum dynamic pair count for a pair to qualify. */
constexpr uint64_t kMinPairCount = 16;

/** May @p op head a superinstruction? Control transfers may not:
 *  the fused handler must fall straight through into its tail. */
bool
fusableHead(Bc op)
{
    switch (op) {
      case Bc::IfZero: case Bc::IfNonZero: case Bc::Goto:
      case Bc::InvokeStatic: case Bc::InvokeNative:
      case Bc::Return: case Bc::IReturn:
        return false;
      default:
        return true;
    }
}

bool
isBranch(Bc op)
{
    return op == Bc::IfZero || op == Bc::IfNonZero || op == Bc::Goto;
}

/**
 * The pairs to fuse: hottest first, deterministic opcode-order
 * tie-break so concurrent builders that saw the same profile produce
 * the same artifact.
 */
std::vector<std::pair<Bc, Bc>>
hottestPairs(const PairProfile &pairs)
{
    std::vector<std::pair<uint64_t, uint32_t>> ranked;
    for (size_t a = 0; a < PairProfile::kOps; ++a) {
        if (!fusableHead((Bc)a))
            continue;
        for (size_t b = 0; b < PairProfile::kOps; ++b) {
            uint64_t n = pairs.at((Bc)a, (Bc)b);
            if (n >= kMinPairCount)
                ranked.emplace_back(n, (uint32_t)(a * PairProfile::kOps + b));
        }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &x, const auto &y) {
                  if (x.first != y.first)
                      return x.first > y.first;
                  return x.second < y.second;
              });
    std::vector<std::pair<Bc, Bc>> hottest;
    for (size_t i = 0; i < ranked.size() && i < kMaxFusedPairs; ++i) {
        uint32_t key = ranked[i].second;
        hottest.emplace_back((Bc)(key / PairProfile::kOps),
                             (Bc)(key % PairProfile::kOps));
    }
    return hottest;
}

} // namespace

std::shared_ptr<const TierArtifact>
buildTierArtifact(trace::Execution &exec, const Module &module,
                  const PairProfile &pairs)
{
    auto artifact = std::make_shared<TierArtifact>();
    artifact->module = module;

    trace::RoutineId routine =
        exec.code().registerRoutine("jvm.tierup", 96);

    artifact->fusedPairs = hottestPairs(pairs);

    auto buildFunc = [&](FuncDesc &fn) {
        const size_t n = fn.code.size();
        artifact->fuse.emplace_back(n, (uint8_t)TierArtifact::kFuseNone);
        artifact->ic.emplace_back(n, (uint8_t)0);
        std::vector<uint8_t> &fuse = artifact->fuse.back();
        std::vector<uint8_t> &ic = artifact->ic.back();

        // Branch-target map: a fused tail must not be jumped into.
        std::vector<uint8_t> target(n, 0);
        for (const Insn &insn : fn.code)
            if (isBranch(insn.op) && (size_t)insn.a < n)
                target[(size_t)insn.a] = 1;

        for (size_t pc = 0; pc < n; ++pc) {
            Insn &insn = fn.code[pc];
            exec.alu(1); // scan/decode the instruction once
            if (Vm::quickenable(insn.op)) {
                // Same work, same charge, as the in-place quicken() —
                // but against a private copy, published immutably.
                insn.quick = true;
                ++artifact->quickened;
                exec.alu(6);
                exec.store(&insn);
            }
            if (insn.op == Bc::GetStatic || insn.op == Bc::PutStatic) {
                ic[pc] = 1;
                ++artifact->icSites;
                exec.alu(3); // resolve field, fill the cache entry
                exec.store(&ic[pc]);
            }
        }

        if (!artifact->fusedPairs.empty()) {
            for (size_t pc = 0; pc + 1 < n; ++pc) {
                if (fuse[pc] != TierArtifact::kFuseNone || target[pc + 1])
                    continue;
                Bc a = fn.code[pc].op, b = fn.code[pc + 1].op;
                bool hot = false;
                for (const auto &p : artifact->fusedPairs)
                    if (p.first == a && p.second == b) {
                        hot = true;
                        break;
                    }
                if (!hot)
                    continue;
                fuse[pc] = TierArtifact::kFuseHead;
                fuse[pc + 1] = TierArtifact::kFuseTail;
                ++artifact->fuseSites;
                exec.alu(4); // emit the pair into the fuse table
                exec.store(&fuse[pc]);
                ++pc; // no overlapping pairs
            }
        }
    };

    // The one-time build is charged like in-place quickening:
    // Precompile, own routine.
    for (FuncDesc &fn : artifact->module.funcs) {
        CategoryScope pre(exec, Category::Precompile);
        RoutineScope r(exec, routine);
        buildFunc(fn);
    }
    return artifact;
}

} // namespace interp::jvm
