#include "harness/record_replay.hh"

#include <cctype>
#include <filesystem>
#include <optional>

#include "support/logging.hh"
#include "tracefile/reader.hh"
#include "tracefile/writer.hh"

namespace interp::harness {

std::string
traceFileName(const BenchSpec &spec)
{
    std::string name = langName(spec.lang);
    name += '-';
    name += spec.name;
    for (char &c : name) {
        if (std::isupper((unsigned char)c))
            c = (char)std::tolower((unsigned char)c);
        else if (!std::isalnum((unsigned char)c) && c != '-' &&
                 c != '_' && c != '.')
            c = '_';
    }
    return name + ".itr";
}

std::string
traceFilePath(const std::string &dir, const BenchSpec &spec)
{
    return (std::filesystem::path(dir) / traceFileName(spec)).string();
}

Measurement
replayTrace(const std::string &path, const BenchSpec &spec,
            const std::vector<trace::Sink *> &extra_sinks,
            const sim::MachineConfig *machine_cfg, bool with_machine)
{
    tracefile::TraceReader reader(path);
    const tracefile::TraceMeta &meta = reader.meta();
    if (meta.lang != langName(spec.lang) || meta.name != spec.name)
        fatal("trace file %s records %s-%s but the suite asked for "
              "%s-%s", path.c_str(), meta.lang.c_str(),
              meta.name.c_str(), langName(spec.lang),
              spec.name.c_str());

    Measurement m;
    m.lang = spec.lang;
    m.name = spec.name;

    // Same sink order as harness::run(): profile, machine, extras; and
    // as there, a counting-only replay builds no machine.
    std::optional<sim::Machine> machine;
    std::vector<trace::Sink *> sinks;
    sinks.push_back(&m.profile);
    if (with_machine) {
        machine.emplace(machine_cfg ? *machine_cfg : sim::MachineConfig());
        sinks.push_back(&*machine);
    }
    for (trace::Sink *sink : extra_sinks)
        sinks.push_back(sink);
    reader.replay(sinks);

    m.programBytes = (size_t)meta.programBytes;
    m.commands = meta.commands;
    m.finished = meta.finished;
    m.commandNames = meta.commandNames;
    if (machine) {
        m.cycles = machine->cycles();
        m.breakdown = machine->breakdown();
        m.imissPer100 = machine->imissPer100Insts();
    }
    return m;
}

Measurement
recordRun(const BenchSpec &spec, const std::string &tape_path,
          const std::vector<trace::Sink *> &extra_sinks,
          const sim::MachineConfig *machine_cfg, bool with_machine)
{
    auto dir = std::filesystem::path(tape_path).parent_path();
    std::error_code ec;
    if (!dir.empty())
        std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create trace directory %s: %s", dir.c_str(),
              ec.message().c_str());
    tracefile::TraceWriter writer(tape_path, langName(spec.lang), spec.name);
    std::vector<trace::Sink *> sinks = extra_sinks;
    sinks.push_back(&writer);
    Measurement m = run(spec, sinks, machine_cfg, with_machine);
    writer.setRunResult(m.programBytes, m.commands, m.finished);
    writer.setCommandNames(m.commandNames);
    writer.finish();
    return m;
}

Measurement
runOrReplay(const BenchSpec &spec, const TraceIo &io,
            const std::vector<trace::Sink *> &extra_sinks,
            const sim::MachineConfig *machine_cfg, bool with_machine)
{
    if (!io.replayDir.empty())
        return replayTrace(traceFilePath(io.replayDir, spec), spec,
                           extra_sinks, machine_cfg, with_machine);
    if (!io.recordDir.empty())
        return recordRun(spec, traceFilePath(io.recordDir, spec),
                         extra_sinks, machine_cfg, with_machine);
    return run(spec, extra_sinks, machine_cfg, with_machine);
}

} // namespace interp::harness
