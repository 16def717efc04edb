#include "workloads/compose.hh"

#include <algorithm>

#include "mipsi/guest_memory.hh"

namespace interp::workloads {

const char *
innerPhaseName(InnerPhase p)
{
    switch (p) {
      case InnerPhase::Startup: return "startup";
      case InnerPhase::Precompile: return "inner-precompile";
      case InnerPhase::Fetch: return "inner-fetch";
      case InnerPhase::Decode: return "inner-decode";
      case InnerPhase::Execute: return "inner-execute";
      case InnerPhase::Dispatch: return "inner-dispatch";
      case InnerPhase::Runtime: return "runtime";
      default: return "?";
    }
}

InnerPhase
GuestFetchProfiler::classify(const std::string &fn_name)
{
    if (fn_name == "fetch_op")
        return InnerPhase::Fetch;
    if (fn_name == "exec_op")
        return InnerPhase::Decode;
    if (fn_name.compare(0, 3, "op_") == 0)
        return InnerPhase::Execute;
    if (fn_name == "main")
        return InnerPhase::Dispatch;
    if (fn_name == "load_script" || fn_name == "tokenize" ||
        fn_name == "next_word" || fn_name == "str_lit" ||
        fn_name == "word_entry" || fn_name == "add_word" ||
        fn_name == "emit")
        return InnerPhase::Precompile;
    return InnerPhase::Runtime;
}

GuestFetchProfiler::GuestFetchProfiler(const mips::Image &image)
{
    const std::string prefix = "fn.";
    for (const auto &[symbol, addr] : image.symbols) {
        if (symbol.compare(0, prefix.size(), prefix) != 0)
            continue;
        FuncCounters fc;
        fc.name = symbol.substr(prefix.size());
        fc.start = addr;
        fc.phase = classify(fc.name);
        funcs_.push_back(std::move(fc));
    }
    std::sort(funcs_.begin(), funcs_.end(),
              [](const FuncCounters &a, const FuncCounters &b) {
                  return a.start < b.start;
              });
    for (size_t i = 0; i < funcs_.size(); ++i)
        funcs_[i].end = i + 1 < funcs_.size() ? funcs_[i + 1].start
                                              : 0xffffffffu;
}

size_t
GuestFetchProfiler::indexOf(uint32_t guest_pc) const
{
    // Last range with start <= pc. Functions are contiguous in the
    // image, so the upper bound's predecessor owns the address.
    size_t lo = 0, hi = funcs_.size();
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (funcs_[mid].start <= guest_pc)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo == 0 ? SIZE_MAX : lo - 1;
}

void
GuestFetchProfiler::onBatch(const trace::BundleBatch &batch)
{
    for (const trace::Bundle &bundle : batch) {
        if (bundle.cls == trace::InstClass::Load &&
            bundle.cat == trace::Category::FetchDecode &&
            (bundle.memAddr & mipsi::kGuestDataBit) && !funcs_.empty()) {
            size_t idx = indexOf(bundle.memAddr & ~mipsi::kGuestDataBit);
            if (idx != SIZE_MAX) {
                cur_ = idx;
                funcs_[idx].guestFetches += 1;
                phases_[(size_t)funcs_[idx].phase].guestFetches += 1;
            }
        }

        InnerPhase phase = cur_ == SIZE_MAX ? InnerPhase::Startup
                                            : funcs_[cur_].phase;
        PhaseCounters &pc = phases_[(size_t)phase];
        switch (bundle.cat) {
          case trace::Category::FetchDecode:
            pc.outerFetchDecode += bundle.count;
            break;
          case trace::Category::Execute:
            pc.outerExecute += bundle.count;
            break;
          case trace::Category::Precompile:
            pc.outerPrecompile += bundle.count;
            break;
        }
        if (cur_ != SIZE_MAX)
            funcs_[cur_].outerInsts += bundle.count;
    }
}

} // namespace interp::workloads
