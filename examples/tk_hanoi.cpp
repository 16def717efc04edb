/**
 * @file
 * tk_hanoi — run the Tk-style Towers of Hanoi script and render the
 * final framebuffer as ASCII art.
 *
 * Demonstrates the embedding API the way Tcl was actually used: a C++
 * host application creates an interpreter, extends it with a display
 * (here the software rasterizer behind the tk_* commands), runs a
 * script, and inspects the results from the host side.
 *
 * Usage: ./build/examples/tk_hanoi [ndisks (1..7)]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gfx/framebuffer.hh"
#include "tclish/interp.hh"
#include "trace/execution.hh"
#include "trace/profile.hh"
#include "vfs/vfs.hh"
#include "workloads/registry.hh"

using namespace interp;

int
main(int argc, char **argv)
{
    int ndisks = argc > 1 ? std::atoi(argv[1]) : 5;
    if (ndisks < 1 || ndisks > 7) {
        std::fprintf(stderr, "ndisks must be 1..7\n");
        return 2;
    }

    std::string script = workloads::loadProgramFile("tclish/hanoi.tcl");
    size_t at = script.find("set ndisks 5");
    if (at != std::string::npos)
        script.replace(at, 12, "set ndisks " + std::to_string(ndisks));

    trace::Execution exec;
    trace::Profile profile;
    exec.addSink(&profile);
    vfs::FileSystem fs;
    tclish::TclInterp tcl(exec, fs);

    tcl.run(script);
    exec.flush();
    std::printf("%s", fs.stdoutCapture().c_str());

    gfx::Framebuffer *fb = tcl.framebuffer();
    if (!fb) {
        std::fprintf(stderr, "no framebuffer created\n");
        return 1;
    }

    // Downsample 2x2 -> one character.
    static const char kShades[] = " .:-=+*#%@";
    for (int y = 0; y + 1 < fb->height(); y += 2) {
        for (int x = 0; x + 1 < fb->width(); x += 2) {
            int v = fb->pixel(x, y) + fb->pixel(x + 1, y) +
                    fb->pixel(x, y + 1) + fb->pixel(x + 1, y + 1);
            v = v / 4;
            std::putchar(kShades[v > 9 ? 9 : v]);
        }
        std::putchar('\n');
    }

    std::printf("\n%llu Tcl commands, %llu native instructions "
                "(%.0f per command), %.1f%% in the Tk library\n",
                (unsigned long long)exec.commands(),
                (unsigned long long)profile.userInstructions(),
                (double)profile.userInstructions() /
                    (double)exec.commands(),
                100.0 * profile.nativeLibInsts() /
                    (double)profile.executeInsts());
    return 0;
}
