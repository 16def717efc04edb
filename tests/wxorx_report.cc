/**
 * @file
 * W^X evidence tool: proves no jit translation unit ever maps memory
 * writable and executable at the same time.
 *
 * A sampler thread re-reads /proc/self/maps as fast as it can while
 * the main thread churns through JitArtifact build/run cycles — the
 * full executable-region lifetime (map RW, emit, seal to RX, execute,
 * unmap) repeated enough times that any window where a region is
 * rwx-mapped would be sampled. Exit status is the report: nonzero if
 * any rwx anonymous mapping was ever observed, zero otherwise.
 *
 * Registered as the `w_xor_x_report` ctest (label: jit). It checks
 * the artifact the build actually produced, not a promise in a
 * comment. On hosts without
 * /proc/self/maps or without the native backend the property is
 * vacuous and the tool reports a skip (exit 0).
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "jit/artifact.hh"

using interp::jit::JitArtifact;

namespace {

std::atomic<bool> done{false};
std::atomic<uint64_t> samples{0};
std::atomic<bool> sawRwx{false};

/** One pass over /proc/self/maps; records any w+x line. */
bool
scanMaps(std::vector<std::string> &offenders)
{
    std::FILE *f = std::fopen("/proc/self/maps", "r");
    if (!f)
        return false;
    char line[512];
    bool any = false;
    while (std::fgets(line, sizeof line, f)) {
        // "address perms offset dev inode path"; perms is rwxp-style.
        const char *sp = std::strchr(line, ' ');
        if (!sp || std::strlen(sp) < 5)
            continue;
        const char *perms = sp + 1;
        if (perms[1] == 'w' && perms[2] == 'x') {
            any = true;
            offenders.push_back(line);
        }
    }
    std::fclose(f);
    return any;
}

uint8_t
spinStep(void *ctx, uint32_t index)
{
    auto *sum = (uint64_t *)ctx;
    *sum += index;
    return 0;
}

void
sampler()
{
    std::vector<std::string> offenders;
    while (!done.load(std::memory_order_relaxed)) {
        if (scanMaps(offenders)) {
            sawRwx.store(true);
            for (const std::string &line : offenders)
                std::fprintf(stderr, "rwx mapping: %s", line.c_str());
            return;
        }
        offenders.clear();
        samples.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace

int
main()
{
    if (!std::fopen("/proc/self/maps", "r")) {
        std::printf("w_xor_x_report: no /proc/self/maps; skipped\n");
        return 0;
    }

    std::thread t(sampler);

    // Enough build/run cycles that the sampler sees every lifetime
    // phase many times over; steps vary so region sizes span pages.
    constexpr int kCycles = 400;
    int native = 0;
    uint64_t sum = 0;
    for (int i = 0; i < kCycles && !sawRwx.load(); ++i) {
        auto art = JitArtifact::build(&spinStep,
                                      64 + (uint32_t)(i % 7) * 64);
        if (art->native())
            ++native;
        art->enter(&sum, 0);
    }

    done.store(true);
    t.join();

    std::printf("w_xor_x_report: %d/%d native builds, %llu map scans, "
                "rwx observed: %s\n",
                native, kCycles,
                (unsigned long long)samples.load(),
                sawRwx.load() ? "YES" : "no");
    if (native == 0)
        std::printf("w_xor_x_report: portable mode only (no "
                    "executable mappings to check)\n");
    return sawRwx.load() ? 1 : 0;
}
