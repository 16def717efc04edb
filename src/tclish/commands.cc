/**
 * @file
 * tclish built-in commands: control flow, variables, strings, lists,
 * I/O, and the tk_* drawing commands backed by the software
 * rasterizer (the "native runtime library" of this interpreter).
 */

#include <algorithm>
#include <cctype>

#include "support/logging.hh"
#include "support/strutil.hh"
#include "tclish/interp.hh"

namespace interp::tclish {

using trace::NativeScope;
using trace::RoutineScope;
using trace::SystemScope;

namespace {

int64_t
wantInt(const std::string &text, const char *what)
{
    std::string_view sv = trim(text);
    char *end = nullptr;
    long long value = strtoll(std::string(sv).c_str(), &end, 0);
    if (sv.empty())
        fatal("tclish: expected integer for %s, got \"%s\"", what,
              text.c_str());
    return value;
}

std::vector<std::string>
splitListLocal(const std::string &text)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace((unsigned char)text[i]))
            ++i;
        if (i >= text.size())
            break;
        if (text[i] == '{') {
            int depth = 1;
            size_t start = ++i;
            while (i < text.size() && depth > 0) {
                if (text[i] == '{')
                    ++depth;
                else if (text[i] == '}')
                    --depth;
                if (depth > 0)
                    ++i;
            }
            out.push_back(text.substr(start, i - start));
            if (i < text.size())
                ++i;
        } else {
            size_t start = i;
            while (i < text.size() &&
                   !std::isspace((unsigned char)text[i]))
                ++i;
            out.push_back(text.substr(start, i - start));
        }
    }
    return out;
}

std::string
joinListLocal(const std::vector<std::string> &elems,
              const std::string &sep = " ", bool brace = true)
{
    std::string out;
    for (size_t i = 0; i < elems.size(); ++i) {
        if (i)
            out += sep;
        bool needs = brace && (elems[i].empty() ||
                               elems[i].find_first_of(" \t\n") !=
                                   std::string::npos);
        if (needs)
            out += "{" + elems[i] + "}";
        else
            out += elems[i];
    }
    return out;
}

} // namespace

Result
TclInterp::evalCommand(const std::vector<std::string> &words, int line)
{
    if (words.empty())
        return {};
    const std::string &cmd = words[0];

    chargeCommandLookup(cmd);
    exec.beginCommand(commands_.intern(cmd));

    auto arity = [&](size_t min_args, size_t max_args) {
        size_t n = words.size() - 1;
        if (n < min_args || n > max_args)
            fatal("tclish: line %d: wrong # args for \"%s\"", line,
                  cmd.c_str());
    };

    RoutineScope handler(exec, commandRegion(cmd));
    exec.alu(70); // the command procedure's argv parsing and setup
    exec.shortInt(8);
    exec.branch(false);

    // --- variables ------------------------------------------------------
    if (cmd == "set") {
        arity(1, 2);
        if (words.size() == 3) {
            writeVar(words[1], words[2]);
            return {Status::Ok, words[2]};
        }
        return {Status::Ok, readVar(words[1])};
    }
    if (cmd == "incr") {
        arity(1, 2);
        int64_t amount =
            words.size() > 2 ? wantInt(words[2], "incr") : 1;
        int64_t value = wantInt(readVar(words[1]), "incr target");
        exec.floatOp(1);
        exec.alu(8);
        std::string out = std::to_string(value + amount);
        writeVar(words[1], out);
        return {Status::Ok, out};
    }
    if (cmd == "unset") {
        arity(1, 99);
        for (size_t i = 1; i < words.size(); ++i) {
            exec.alu(20);
            scopeFor(words[i]).erase(words[i]);
            ++symbolEpoch; // a removed name invalidates symbol caches
        }
        return {};
    }
    if (cmd == "global") {
        arity(1, 99);
        for (size_t i = 1; i < words.size(); ++i) {
            exec.alu(24);
            scopes.back().globals.push_back(words[i]);
        }
        return {};
    }
    if (cmd == "append") {
        arity(2, 99);
        int steps = 0;
        SymTab &table = scopeFor(words[1]);
        std::string &slot = table.lookup(words[1], steps);
        chargeLookup(table, words[1].size(), steps);
        for (size_t i = 2; i < words.size(); ++i)
            slot += words[i];
        chargeStringWork(slot.size());
        return {Status::Ok, slot};
    }

    // --- expressions & control ------------------------------------------
    if (cmd == "expr") {
        // All argument words are concatenated, Tcl-style.
        std::string text;
        for (size_t i = 1; i < words.size(); ++i) {
            if (i > 1)
                text += " ";
            text += words[i];
        }
        return {Status::Ok, std::to_string(evalExpr(text, line))};
    }
    if (cmd == "if") {
        // if cond body ?elseif cond body?* ?else body?
        size_t i = 1;
        while (i + 1 < words.size()) {
            int64_t cond = evalExpr(words[i], line);
            exec.branch(cond != 0);
            if (cond != 0)
                return evalScript(words[i + 1]);
            i += 2;
            if (i < words.size() && words[i] == "elseif") {
                ++i;
                continue;
            }
            if (i < words.size() && words[i] == "else") {
                if (i + 1 >= words.size())
                    fatal("tclish: line %d: else needs a body", line);
                return evalScript(words[i + 1]);
            }
            break;
        }
        return {};
    }
    if (cmd == "while") {
        arity(2, 2);
        Result last;
        while (true) {
            int64_t cond = evalExpr(words[1], line);
            exec.branch(cond != 0);
            if (cond == 0)
                break;
            Result res = evalScript(words[2]);
            if (res.status == Status::Break)
                break;
            if (res.status == Status::Continue)
                continue;
            if (res.status != Status::Ok)
                return res;
        }
        return {};
    }
    if (cmd == "for") {
        arity(4, 4);
        Result init = evalScript(words[1]);
        if (init.status != Status::Ok)
            return init;
        while (true) {
            int64_t cond = evalExpr(words[2], line);
            exec.branch(cond != 0);
            if (cond == 0)
                break;
            Result res = evalScript(words[4]); // body
            if (res.status == Status::Break)
                break;
            if (res.status != Status::Ok &&
                res.status != Status::Continue)
                return res;
            Result next = evalScript(words[3]); // increment
            if (next.status != Status::Ok)
                return next;
        }
        return {};
    }
    if (cmd == "foreach") {
        arity(3, 3);
        auto items = splitListLocal(words[2]);
        {
            RoutineScope r(exec, rList);
            exec.alu(20 + (uint32_t)words[2].size() * 2);
        }
        for (const std::string &item : items) {
            writeVar(words[1], item);
            Result res = evalScript(words[3]); // body
            if (res.status == Status::Break)
                break;
            if (res.status != Status::Ok &&
                res.status != Status::Continue)
                return res;
        }
        return {};
    }
    if (cmd == "break")
        return {Status::Break, ""};
    if (cmd == "continue")
        return {Status::Continue, ""};
    if (cmd == "return") {
        arity(0, 1);
        return {Status::Return, words.size() > 1 ? words[1] : ""};
    }
    if (cmd == "exit") {
        arity(0, 1);
        exitCode = words.size() > 1 ? (int)wantInt(words[1], "exit") : 0;
        return {Status::Stop, ""};
    }
    if (cmd == "proc") {
        arity(3, 3);
        Proc proc;
        proc.params = splitListLocal(words[2]);
        proc.body = words[3];
        {
            RoutineScope r(exec, rProc);
            exec.alu(60 + (uint32_t)words[3].size() / 2);
        }
        procs[words[1]] = std::move(proc);
        return {};
    }

    // --- strings --------------------------------------------------------
    if (cmd == "string") {
        arity(2, 4);
        const std::string &sub = words[1];
        RoutineScope r(exec, rString);
        if (sub == "length") {
            exec.alu(12);
            return {Status::Ok, std::to_string(words[2].size())};
        }
        if (sub == "index") {
            exec.alu(16);
            int64_t i = wantInt(words[3], "string index");
            if (i < 0 || (size_t)i >= words[2].size())
                return {Status::Ok, ""};
            return {Status::Ok, std::string(1, words[2][(size_t)i])};
        }
        if (sub == "range") {
            int64_t first = wantInt(words[3], "string range");
            int64_t last_idx =
                words.size() > 4 && words[4] != "end"
                    ? wantInt(words[4], "string range")
                    : (int64_t)words[2].size() - 1;
            first = std::max<int64_t>(first, 0);
            last_idx =
                std::min<int64_t>(last_idx, (int64_t)words[2].size() - 1);
            std::string out =
                first <= last_idx
                    ? words[2].substr((size_t)first,
                                      (size_t)(last_idx - first + 1))
                    : "";
            exec.alu(18);
            chargeStringWork(out.size());
            return {Status::Ok, out};
        }
        if (sub == "compare") {
            exec.alu(10);
            chargeStringWork(
                std::min(words[2].size(), words[3].size()));
            int c = words[2].compare(words[3]);
            return {Status::Ok,
                    std::to_string(c < 0 ? -1 : c > 0 ? 1 : 0)};
        }
        if (sub == "first") {
            exec.alu(14);
            size_t at = words[3].find(words[2]);
            chargeStringWork(at == std::string::npos ? words[3].size()
                                                     : at + 1);
            return {Status::Ok,
                    std::to_string(at == std::string::npos
                                       ? -1
                                       : (long long)at)};
        }
        if (sub == "toupper" || sub == "tolower") {
            std::string out = words[2];
            for (char &c : out)
                c = sub == "toupper"
                        ? (char)std::toupper((unsigned char)c)
                        : (char)std::tolower((unsigned char)c);
            exec.shortInt((uint32_t)out.size());
            chargeStringWork(out.size());
            return {Status::Ok, out};
        }
        fatal("tclish: line %d: unknown string subcommand \"%s\"", line,
              sub.c_str());
    }
    if (cmd == "format") {
        // format spec ?arg...? — a subset: %d %s %c %x with 0/- width.
        arity(1, 99);
        RoutineScope r(exec, rString);
        const std::string &f = words[1];
        std::string out;
        size_t arg = 2;
        for (size_t i = 0; i < f.size(); ++i) {
            if (f[i] != '%') {
                out.push_back(f[i]);
                continue;
            }
            ++i;
            if (i < f.size() && f[i] == '%') {
                out.push_back('%');
                continue;
            }
            std::string spec = "%";
            while (i < f.size() && (f[i] == '-' || f[i] == '0'))
                spec.push_back(f[i++]);
            while (i < f.size() && std::isdigit((unsigned char)f[i]))
                spec.push_back(f[i++]);
            if (i >= f.size())
                break;
            std::string value = arg < words.size() ? words[arg++] : "";
            switch (f[i]) {
              case 'd':
                spec += "lld";
                out += format(spec.c_str(),
                              (long long)wantInt(value, "format %d"));
                break;
              case 'x':
                spec += "llx";
                out += format(
                    spec.c_str(),
                    (unsigned long long)wantInt(value, "format %x"));
                break;
              case 'c':
                out.push_back((char)wantInt(value, "format %c"));
                break;
              case 's':
                spec += "s";
                out += format(spec.c_str(), value.c_str());
                break;
              default:
                fatal("tclish: format: unsupported %%%c", f[i]);
            }
        }
        exec.alu(30 + (uint32_t)f.size() * 3);
        chargeStringWork(out.size());
        return {Status::Ok, out};
    }

    // --- lists ----------------------------------------------------------
    if (cmd == "list") {
        RoutineScope r(exec, rList);
        std::vector<std::string> elems(words.begin() + 1, words.end());
        exec.alu(14 + (uint32_t)elems.size() * 8);
        std::string out = joinListLocal(elems);
        chargeStringWork(out.size());
        return {Status::Ok, out};
    }
    if (cmd == "lindex") {
        arity(2, 2);
        RoutineScope r(exec, rList);
        auto items = splitListLocal(words[1]);
        exec.alu(16 + (uint32_t)words[1].size() * 2);
        int64_t i = wantInt(words[2], "lindex");
        if (i < 0 || (size_t)i >= items.size())
            return {Status::Ok, ""};
        return {Status::Ok, items[(size_t)i]};
    }
    if (cmd == "llength") {
        arity(1, 1);
        RoutineScope r(exec, rList);
        exec.alu(12 + (uint32_t)words[1].size() * 2);
        return {Status::Ok,
                std::to_string(splitListLocal(words[1]).size())};
    }
    if (cmd == "lappend") {
        arity(1, 99);
        RoutineScope r(exec, rList);
        int steps = 0;
        SymTab &table = scopeFor(words[1]);
        std::string &slot = table.lookup(words[1], steps);
        chargeLookup(table, words[1].size(), steps);
        for (size_t i = 2; i < words.size(); ++i) {
            if (!slot.empty())
                slot += " ";
            bool needs =
                words[i].empty() ||
                words[i].find_first_of(" \t\n") != std::string::npos;
            slot += needs ? "{" + words[i] + "}" : words[i];
        }
        exec.alu(18);
        chargeStringWork(slot.size());
        return {Status::Ok, slot};
    }
    if (cmd == "lrange") {
        arity(3, 3);
        RoutineScope r(exec, rList);
        auto items = splitListLocal(words[1]);
        exec.alu(16 + (uint32_t)words[1].size() * 2);
        int64_t first = wantInt(words[2], "lrange");
        int64_t last_idx = words[3] == "end"
                               ? (int64_t)items.size() - 1
                               : wantInt(words[3], "lrange");
        first = std::max<int64_t>(first, 0);
        last_idx = std::min<int64_t>(last_idx, (int64_t)items.size() - 1);
        std::vector<std::string> out;
        for (int64_t i = first; i <= last_idx; ++i)
            out.push_back(items[(size_t)i]);
        return {Status::Ok, joinListLocal(out)};
    }
    if (cmd == "split") {
        arity(1, 2);
        RoutineScope r(exec, rString);
        std::string seps =
            words.size() > 2 ? words[2] : std::string(" \t\n");
        std::vector<std::string> out;
        std::string current;
        for (char c : words[1]) {
            if (seps.find(c) != std::string::npos) {
                out.push_back(current);
                current.clear();
            } else {
                current.push_back(c);
            }
        }
        out.push_back(current);
        exec.alu(10 + (uint32_t)words[1].size() * 3);
        chargeStringWork(words[1].size());
        // Tcl split on default whitespace drops empty fields; with an
        // explicit separator it keeps them.
        if (words.size() <= 2) {
            std::vector<std::string> packed;
            for (auto &piece : out)
                if (!piece.empty())
                    packed.push_back(std::move(piece));
            out = std::move(packed);
        }
        return {Status::Ok, joinListLocal(out)};
    }
    if (cmd == "join") {
        arity(1, 2);
        RoutineScope r(exec, rList);
        auto items = splitListLocal(words[1]);
        std::string sep = words.size() > 2 ? words[2] : " ";
        exec.alu(12 + (uint32_t)words[1].size() * 2);
        std::string out = joinListLocal(items, sep, false);
        chargeStringWork(out.size());
        return {Status::Ok, out};
    }

    // --- I/O ------------------------------------------------------------
    if (cmd == "puts") {
        size_t i = 1;
        bool newline = true;
        if (i < words.size() && words[i] == "-nonewline") {
            newline = false;
            ++i;
        }
        int fd = 1;
        if (i + 1 < words.size()) {
            // puts ?chan? string
            const std::string &chan = words[i];
            if (chan == "stderr") {
                fd = 2;
            } else if (chan != "stdout") {
                auto it = channels.find(chan);
                if (it == channels.end() || it->second.fd < 0)
                    fatal("tclish: line %d: bad channel \"%s\"", line,
                          chan.c_str());
                fd = it->second.fd;
            }
            ++i;
        }
        if (i >= words.size())
            fatal("tclish: line %d: puts needs a string", line);
        std::string text = words[i];
        if (newline)
            text.push_back('\n');
        {
            RoutineScope r(exec, rIo);
            exec.alu(40 + (uint32_t)text.size());
        }
        kernelWrite(fd, text);
        return {};
    }
    if (cmd == "open") {
        arity(1, 2);
        RoutineScope r(exec, rIo);
        exec.alu(60);
        std::string mode = words.size() > 2 ? words[2] : "r";
        vfs::OpenMode vmode = mode == "w"   ? vfs::OpenMode::Write
                              : mode == "a" ? vfs::OpenMode::Append
                                            : vfs::OpenMode::Read;
        int fd = fs.open(words[1], vmode);
        if (fd < 0)
            fatal("tclish: line %d: couldn't open \"%s\"", line,
                  words[1].c_str());
        std::string name = "file" + std::to_string(fd);
        channels[name] = Channel{fd};
        return {Status::Ok, name};
    }
    if (cmd == "close") {
        arity(1, 1);
        RoutineScope r(exec, rIo);
        exec.alu(30);
        auto it = channels.find(words[1]);
        if (it != channels.end() && it->second.fd >= 0) {
            fs.close(it->second.fd);
            it->second.fd = -1;
        }
        return {};
    }
    if (cmd == "read") {
        // read chan nbytes — one kernel block copy.
        arity(2, 2);
        int fd = 0;
        if (words[1] != "stdin") {
            auto it = channels.find(words[1]);
            if (it == channels.end() || it->second.fd < 0)
                fatal("tclish: line %d: bad channel \"%s\"", line,
                      words[1].c_str());
            fd = it->second.fd;
        }
        int64_t want = wantInt(words[2], "read size");
        std::vector<char> buf((size_t)std::max<int64_t>(want, 0));
        int64_t n = fs.read(fd, buf.data(), want);
        {
            RoutineScope r(exec, rIo);
            exec.alu(50);
        }
        {
            SystemScope sys(exec);
            RoutineScope rk(exec, rKernel);
            exec.alu(80);
            for (int64_t k = 0; k < n; k += 32) {
                exec.loadAt(0x76400000u + (uint32_t)(k % 8192));
                exec.storeAt(0x76500020u + (uint32_t)(k % 8192));
                exec.alu(6);
            }
        }
        return {Status::Ok,
                std::string(buf.data(), (size_t)std::max<int64_t>(n, 0))};
    }
    if (cmd == "seek") {
        arity(2, 2);
        auto it = channels.find(words[1]);
        if (it == channels.end() || it->second.fd < 0)
            fatal("tclish: line %d: bad channel \"%s\"", line,
                  words[1].c_str());
        fs.seek(it->second.fd, wantInt(words[2], "seek offset"), 0);
        RoutineScope r(exec, rIo);
        exec.alu(40);
        return {};
    }
    if (cmd == "gets") {
        arity(1, 2);
        int fd = 0;
        if (words[1] != "stdin") {
            auto it = channels.find(words[1]);
            if (it == channels.end() || it->second.fd < 0)
                fatal("tclish: line %d: bad channel \"%s\"", line,
                      words[1].c_str());
            fd = it->second.fd;
        }
        std::string text;
        char c;
        bool any = false;
        while (fs.read(fd, &c, 1) == 1) {
            any = true;
            if (c == '\n')
                break;
            text.push_back(c);
        }
        {
            RoutineScope r(exec, rIo);
            exec.alu(40 + (uint32_t)text.size() * 2);
        }
        {
            SystemScope sys(exec);
            RoutineScope r(exec, rKernel);
            exec.alu(60);
            for (size_t k = 0; k < text.size(); k += 32)
                exec.loadAt(0x76200000u + (uint32_t)(k % 8192));
        }
        if (words.size() > 2) {
            writeVar(words[2], text);
            return {Status::Ok,
                    std::to_string(any ? (long long)text.size() : -1)};
        }
        return {Status::Ok, text};
    }

    // --- tk-like drawing (native runtime library) -------------------------
    if (startsWith(cmd, "tk_")) {
        NativeScope nat(exec);
        RoutineScope r(exec, rTk);
        auto num = [&](size_t i) {
            return (int)wantInt(words[i], "tk coordinate");
        };
        auto charge_pixels = [&](uint64_t pixels) {
            exec.alu(50);
            if (!fb)
                return;
            const auto &data = fb->pixels();
            uint64_t stores = pixels / 8 + 1;
            size_t step =
                std::max<size_t>(64, data.size() / (stores + 1));
            size_t off = 0;
            for (uint64_t k = 0; k < stores; ++k) {
                exec.store(data.data() + off);
                exec.alu(4);
                exec.shortInt(2);
                off = (off + step) % data.size();
                if ((k & 15) == 15)
                    exec.branch(true);
            }
        };
        if (cmd == "tk_init") {
            arity(2, 2);
            exec.alu(300); // window-system handshake
            fb = std::make_unique<gfx::Framebuffer>(
                std::clamp(num(1), 1, 1024), std::clamp(num(2), 1, 1024));
            return {};
        }
        if (!fb)
            fatal("tclish: line %d: %s before tk_init", line,
                  cmd.c_str());
        if (cmd == "tk_clear") {
            arity(1, 1);
            fb->clear((uint8_t)num(1));
            charge_pixels((uint64_t)fb->width() * fb->height() / 4);
            return {};
        }
        if (cmd == "tk_line") {
            arity(5, 5);
            fb->drawLine(num(1), num(2), num(3), num(4),
                         (uint8_t)num(5));
            charge_pixels((uint64_t)std::max(std::abs(num(3) - num(1)),
                                             std::abs(num(4) - num(2))) +
                          1);
            return {};
        }
        if (cmd == "tk_rect") {
            arity(5, 5);
            fb->drawRect(num(1), num(2), num(3), num(4),
                         (uint8_t)num(5));
            charge_pixels(2ull * (num(3) + num(4)));
            return {};
        }
        if (cmd == "tk_fillrect") {
            arity(5, 5);
            fb->fillRect(num(1), num(2), num(3), num(4),
                         (uint8_t)num(5));
            charge_pixels((uint64_t)std::max(num(3), 0) *
                          (uint64_t)std::max(num(4), 0));
            return {};
        }
        if (cmd == "tk_circle") {
            arity(4, 4);
            fb->drawCircle(num(1), num(2), num(3), (uint8_t)num(4));
            charge_pixels((uint64_t)(6.3 * std::max(num(3), 1)));
            return {};
        }
        if (cmd == "tk_fillcircle") {
            arity(4, 4);
            fb->fillCircle(num(1), num(2), num(3), (uint8_t)num(4));
            charge_pixels((uint64_t)(3.15 * num(3) * num(3)));
            return {};
        }
        if (cmd == "tk_text") {
            arity(4, 4);
            fb->drawText(num(1), num(2), words[3], (uint8_t)num(4));
            charge_pixels(words[3].size() * 35);
            return {};
        }
        if (cmd == "tk_update") {
            arity(0, 0);
            // Present the frame: an X-server round trip.
            SystemScope sys(exec);
            RoutineScope rk(exec, rKernel);
            exec.alu(200);
            for (int k = 0; k < fb->width() * fb->height() / 64;
                 k += 32)
                exec.loadAt(0x76300000u + (uint32_t)(k % 8192));
            return {};
        }
        fatal("tclish: line %d: unknown tk command \"%s\"", line,
              cmd.c_str());
    }

    // --- user procs -------------------------------------------------------
    auto proc = procs.find(cmd);
    if (proc != procs.end())
        return invokeProc(proc->second, words);

    fatal("tclish: line %d: invalid command name \"%s\"", line,
          cmd.c_str());
}

} // namespace interp::tclish
