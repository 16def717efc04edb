#include "perlish/interp.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace interp::perlish {

using trace::Category;
using trace::CategoryScope;
using trace::MemModelScope;
using trace::RoutineScope;
using trace::SystemScope;

Interp::Interp(trace::Execution &exec_, vfs::FileSystem &fs_,
               bool symbolIc)
    : exec(exec_), fs(fs_), icMode(symbolIc)
{
    auto &code = exec.code();
    rEval = code.registerRoutine("perl.eval", 700);
    rArith = code.registerRoutine("perl.arith", 350);
    rString = code.registerRoutine("perl.string", 700);
    rHash = code.registerRoutine("perl.hash", 450);
    rArray = code.registerRoutine("perl.array", 300);
    rRegexec = code.registerRoutine("perl.regexec", 3200);
    rSub = code.registerRoutine("perl.sub", 400);
    rIo = code.registerRoutine("perl.io", 400);
    rKernel = code.registerRoutine("perl.kernel", 200,
                                   trace::Segment::NativeLib);
    rMagic = code.registerRoutine("perl.magic", 250);

    for (size_t i = 0; i < (size_t)Opc::NumOps; ++i)
        opCommand[i] = commands_.intern(opcName((Opc)i));

    // One handler region per op, sized by the family's code weight in
    // Perl 4's eval.c; together they span ~45 KB of synthetic text.
    for (size_t i = 0; i < (size_t)Opc::NumOps; ++i) {
        uint32_t size = 220;
        switch ((Opc)i) {
          case Opc::Match: case Opc::Subst: case Opc::SplitOp:
            size = 700; // plus the shared regexec region below
            break;
          case Opc::Concat: case Opc::Repeat: case Opc::Substr:
          case Opc::Sprintf: case Opc::Join:
            size = 420;
            break;
          case Opc::HashElem: case Opc::Keys: case Opc::Values:
          case Opc::Delete:
            size = 380;
            break;
          case Opc::CallSub: case Opc::Return: case Opc::Local:
            size = 360;
            break;
          case Opc::Print: case Opc::OpenF: case Opc::CloseF:
          case Opc::ReadLine: case Opc::SysRead:
            size = 400;
            break;
          default:
            break;
        }
        rOp[i] = exec.code().registerRoutine(
            std::string("perl.op.") + opcName((Opc)i), size);
    }
    // Last, and only in IC mode: the baseline synthetic code layout
    // stays bit-for-bit what it was before the mode existed.
    if (icMode)
        rHashCache = exec.code().registerRoutine("perl.hashcache", 120);
}

void
Interp::load(std::string_view source, const std::string &filename)
{
    script_ = compileScript(source, &exec, filename);
    scalars.assign(script_.scalarNames.size(), Scalar());
    for (auto &s : scalars)
        s.defined_ = false;
    arrays.assign(script_.arrayNames.size(), List());
    hashes.clear();
    hashes.resize(script_.hashNames.size());
    handles.clear();
    ctrl = Ctrl::Normal;
    exitCode = 0;
}

int
Interp::run()
{
    if (!script_.main)
        panic("Interp::run before load()");
    (void)eval(*script_.main);
    return exitCode;
}

// --- cost helpers ----------------------------------------------------------

void
Interp::fetchDecode(const OpNode &node, trace::CommandId id)
{
    // Perl 4's eval(): a large switch over a heap-allocated op tree,
    // with argument-stack setup, context ("wantarray") determination
    // and magic/taint checks on every node — ~130-200 native
    // instructions per command (Table 2).
    exec.beginCommand(id);
    CategoryScope fd(exec, Category::FetchDecode);
    RoutineScope r(exec, rEval);
    exec.alu(26);                 // loop top: op fetch, tracing hook
    exec.load(&node);             // op header
    exec.load(&node.kids);        // operand list
    exec.shortInt(8);             // type/flag field extraction
    exec.branch(false);           // watch/magic check
    exec.branch(true);            // dispatch-table bounds
    // Indirect jump into the op's own arm of the giant eval switch.
    // The arm does the per-op work Perl 4 does before any helper is
    // reached: context ("wantarray") setup, argument-stack
    // marshalling, flag checks, sv preparation. Emitting it in the
    // op's own region gives Perl its large instruction working set.
    exec.dispatch(rOp[(size_t)node.op]);
    exec.alu(88);
    for (const auto &kid : node.kids) {
        exec.load(kid.get());     // push operand descriptors
        exec.alu(8);
    }
    exec.shortInt(10);
    exec.load(&node.num);
    exec.alu(26);
    exec.branch(false);
    exec.endDispatch();
}

void
Interp::chargeStringTouch(size_t chars)
{
    // String copy / scan work: a load+store pair per 8 bytes.
    RoutineScope r(exec, rString);
    uint32_t chunks = (uint32_t)(chars / 8) + 1;
    exec.alu(10);
    for (uint32_t i = 0; i < chunks; ++i) {
        exec.loadAt(0x71000000u + (i * 8) % 65536);
        exec.alu(2);
    }
    exec.shortInt(chunks);
}

void
Interp::chargeHashAccess(const HashTable &table, size_t key_len,
                         int chain_steps)
{
    // §3.3: a hash translation costs ~210 native instructions. The
    // key is read at the entry's key, the heap object the lookup is
    // about (the bucket head after a miss).
    const void *bucket_addr = table.lastBucketAddr;
    const char *key = table.lastKeyAddr;
    auto keyAt = [&](size_t i) -> const void * {
        return key ? key + i : bucket_addr;
    };
    MemModelScope mm(exec);
    RoutineScope r(exec, rHash);
    exec.noteMemModelAccess();
    exec.alu(48);                             // setup, masking, checks
    for (size_t i = 0; i < key_len; ++i) {    // hash function
        if ((i & 3) == 0)
            exec.load(keyAt(i));
        exec.alu(2);
        exec.shortInt(1);
    }
    exec.load(bucket_addr);                   // bucket head
    for (int s = 0; s < std::max(chain_steps, 1); ++s) {
        exec.load(bucket_addr);               // chain node
        exec.branch(s + 1 < chain_steps);     // key compare outcome
        for (size_t i = 0; i < key_len; i += 4)
            exec.load(keyAt(i));              // memcmp
        exec.alu((uint32_t)key_len / 2 + 4);
    }
    exec.alu(30);                             // entry bookkeeping
}

bool
Interp::icHashHit(const OpNode &node, const std::string &key,
                  const HashTable &table)
{
    if (!icMode)
        return false;
    HashIcEntry &entry = hashIc[&node];
    bool hit = !entry.key.empty() && entry.key == key &&
               entry.gen == table.generation();
    if (hit) {
        // Monomorphic hit: cached-key identity check plus a load
        // through the cached entry — ~25 instructions instead of the
        // full ~210-instruction translation.
        MemModelScope mm(exec);
        RoutineScope r(exec, rHashCache);
        exec.noteMemModelAccess();
        exec.alu(8);                     // site index, guard setup
        exec.load(&entry);               // cache entry
        exec.branch(false);              // generation guard holds
        exec.load(table.lastKeyAddr);    // cached-key identity check
        exec.branch(false);
        exec.load(table.lastBucketAddr); // direct entry load
        exec.alu(12);                    // value handoff
        ++entry.hits;
        return true;
    }
    // Miss: the guard is memory-model execute work; the refill is
    // translation work (Precompile). The caller then performs the
    // full baseline hash translation — the contained fallback.
    {
        MemModelScope mm(exec);
        RoutineScope r(exec, rHashCache);
        exec.alu(8);
        exec.load(&entry);
        exec.branch(true); // guard fails
    }
    {
        CategoryScope pre(exec, Category::Precompile);
        RoutineScope r(exec, rHashCache);
        exec.alu(10);
        exec.store(&entry);
    }
    entry.key = key;
    entry.gen = table.generation();
    return false;
}

void
Interp::chargeRegexSteps(uint64_t steps)
{
    // The backtracking matcher: per step a character load, a class
    // test and backtrack-stack maintenance.
    RoutineScope r(exec, rRegexec);
    exec.alu(40);
    uint64_t charged = std::min<uint64_t>(steps, 4'000'000);
    for (uint64_t i = 0; i < charged; i += 4) {
        exec.loadAt(0x72000000u + (uint32_t)((i * 4) % 65536));
        exec.alu(12);
        exec.shortInt(4);
        exec.branch((i & 8) != 0);
    }
}

void
Interp::chargeCoercion(const Scalar &value)
{
    if (value.lastCoercionCost > 0) {
        RoutineScope r(exec, rMagic);
        exec.alu((uint32_t)value.lastCoercionCost * 3 + 8);
        value.lastCoercionCost = 0;
    }
}

void
Interp::kernelWrite(int fd, const std::string &text)
{
    fs.write(fd, text.data(), (int64_t)text.size());
    SystemScope sys(exec);
    RoutineScope r(exec, rKernel);
    exec.alu(90);
    for (size_t i = 0; i < text.size(); i += 32) {
        exec.loadAt(0x73000000u + (uint32_t)(i % 8192));
        exec.storeAt(0x73100020u + (uint32_t)(i % 8192));
        exec.alu(6);
    }
}

std::string
Interp::readLine(const std::string &handle)
{
    int fd;
    bool *eof_flag = nullptr;
    if (handle == "STDIN") {
        fd = 0;
    } else {
        auto it = handles.find(handle);
        if (it == handles.end() || it->second.fd < 0)
            fatal("perlish: read from unopened handle %s",
                  handle.c_str());
        fd = it->second.fd;
        eof_flag = &it->second.eof;
    }
    std::string line;
    char c;
    while (fs.read(fd, &c, 1) == 1) {
        line.push_back(c);
        if (c == '\n')
            break;
    }
    if (line.empty() && eof_flag)
        *eof_flag = true;
    // I/O path: stdio-like buffering plus the kernel copy.
    {
        RoutineScope r(exec, rIo);
        exec.alu(30 + (uint32_t)line.size());
    }
    SystemScope sys(exec);
    RoutineScope r(exec, rKernel);
    exec.alu(60);
    for (size_t i = 0; i < line.size(); i += 32)
        exec.loadAt(0x73200000u + (uint32_t)(i % 8192));
    return line;
}

// --- lvalues --------------------------------------------------------------

Scalar *
Interp::lvalueSlot(const OpNode &node)
{
    switch (node.op) {
      case Opc::ScalarVar: {
        MemModelScope mm(exec);
        exec.load(&scalars[node.slot]);
        exec.alu(2);
        return &scalars[node.slot];
      }
      case Opc::ArrayElem: {
        int32_t index = (int32_t)eval(*node.kids[0]).num();
        exec.beginCommand(opCommand[(size_t)node.op]); // aelem retires
        MemModelScope mm(exec);
        RoutineScope r(exec, rArray);
        exec.alu(8);
        exec.branch(false); // bounds / extend check
        List &array = arrays[node.slot];
        if (index < 0)
            index += (int32_t)array.size();
        if (index < 0)
            fatal("perlish: negative array index");
        if ((size_t)index >= array.size())
            array.resize((size_t)index + 1);
        exec.load(&array[index]);
        return &array[index];
      }
      case Opc::HashElem: {
        Scalar key = eval(*node.kids[0]);
        exec.beginCommand(opCommand[(size_t)node.op]); // helem retires
        const std::string &key_str = key.str();
        chargeCoercion(key);
        int steps = 0;
        Scalar &slot = hashes[node.slot].lookup(key_str, steps);
        if (!icHashHit(node, key_str, hashes[node.slot]))
            chargeHashAccess(hashes[node.slot], key_str.size(), steps);
        return &slot;
      }
      case Opc::CaptureVar:
        return &captures[node.slot];
      default:
        fatal("perlish: line %d: not an lvalue (%s)", node.line,
              opcName(node.op));
    }
}

// --- list-context evaluation ------------------------------------------------

void
Interp::evalList(const OpNode &node, List &out, bool retired)
{
    // A list op retires here, unless eval() retired it already.
    auto retireOp = [&](trace::CommandId id) {
        if (retired)
            exec.resumeCommand(id);
        else
            exec.beginCommand(id);
    };
    switch (node.op) {
      case Opc::CommaList:
        for (const auto &kid : node.kids)
            evalList(*kid, out);
        break;
      case Opc::ArrayVar: {
        retireOp(opCommand[(size_t)node.op]);
        MemModelScope mm(exec);
        RoutineScope r(exec, rArray);
        exec.alu(10);
        List &array = arrays[node.slot];
        for (const Scalar &v : array) {
            exec.load(&v);
            out.push_back(v);
        }
        break;
      }
      case Opc::Range: {
        double lo = eval(*node.kids[0]).num();
        double hi = eval(*node.kids[1]).num();
        retireOp(opCommand[(size_t)node.op]);
        RoutineScope r(exec, rArray);
        for (double v = lo; v <= hi; v += 1) {
            exec.alu(4);
            out.push_back(Scalar::fromNum(v));
        }
        break;
      }
      case Opc::SplitOp: {
        Scalar text = eval(*node.kids[0]);
        retireOp(opCommand[(size_t)Opc::SplitOp]);
        uint64_t steps = 0;
        auto pieces = node.rx->split(text.str(), steps);
        chargeRegexSteps(steps);
        size_t total = 0;
        for (auto &piece : pieces) {
            total += piece.size();
            out.push_back(Scalar::fromStr(std::move(piece)));
        }
        chargeStringTouch(total);
        break;
      }
      case Opc::Keys: {
        retireOp(opCommand[(size_t)node.op]);
        RoutineScope r(exec, rHash);
        int slot = node.kids.empty() ? node.slot : node.kids[0]->slot;
        auto key_list = hashes[slot].keys();
        exec.alu(12 + (uint32_t)key_list.size() * 6);
        for (auto &k : key_list)
            out.push_back(Scalar::fromStr(std::move(k)));
        break;
      }
      case Opc::Values: {
        retireOp(opCommand[(size_t)node.op]);
        RoutineScope r(exec, rHash);
        int slot = node.kids.empty() ? node.slot : node.kids[0]->slot;
        auto key_list = hashes[slot].keys();
        exec.alu(12 + (uint32_t)key_list.size() * 8);
        for (auto &k : key_list) {
            int steps = 0;
            out.push_back(*hashes[slot].find(k, steps));
        }
        break;
      }
      default:
        out.push_back(eval(node));
        break;
    }
}

// --- the eval loop ----------------------------------------------------------

Scalar
Interp::eval(const OpNode &node)
{
    if (ctrl != Ctrl::Normal)
        return Scalar();

    trace::CommandId my = opCommand[(size_t)node.op];
    fetchDecode(node, my);

    switch (node.op) {
      case Opc::ConstNum: {
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(4);
        return Scalar::fromNum(node.num);
      }
      case Opc::ConstStr: {
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(6);
        chargeStringTouch(node.str.size());
        return Scalar::fromStr(node.str);
      }
      case Opc::ScalarVar: {
        MemModelScope mm(exec);
        exec.load(&scalars[node.slot]);
        exec.alu(3);
        return scalars[node.slot];
      }
      case Opc::CaptureVar: {
        exec.load(&captures[node.slot]);
        exec.alu(3);
        return captures[node.slot];
      }
      case Opc::ArrayElem: {
        int32_t index = (int32_t)eval(*node.kids[0]).num();
        exec.resumeCommand(my);
        MemModelScope mm(exec);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(8);
        exec.branch(false);
        List &array = arrays[node.slot];
        if (index < 0)
            index += (int32_t)array.size();
        if (index < 0 || (size_t)index >= array.size())
            return Scalar(); // undef, like Perl
        exec.load(&array[index]);
        return array[index];
      }
      case Opc::HashElem: {
        Scalar key = eval(*node.kids[0]);
        exec.resumeCommand(my);
        const std::string &key_str = key.str();
        chargeCoercion(key);
        int steps = 0;
        Scalar *found = hashes[node.slot].find(key_str, steps);
        if (!found || !icHashHit(node, key_str, hashes[node.slot]))
            chargeHashAccess(hashes[node.slot], key_str.size(), steps);
        return found ? *found : Scalar();
      }
      case Opc::ArrayVar: { // scalar context: element count
        MemModelScope mm(exec);
        exec.load(&arrays[node.slot]);
        exec.alu(4);
        return Scalar::fromNum((double)arrays[node.slot].size());
      }
      case Opc::ArrayLast: {
        exec.load(&arrays[node.slot]);
        exec.alu(4);
        return Scalar::fromNum((double)arrays[node.slot].size() - 1);
      }

      // --- arithmetic ------------------------------------------------------
      case Opc::Add: case Opc::Sub: case Opc::Mul: case Opc::Div:
      case Opc::Mod: case Opc::NumEq: case Opc::NumNe: case Opc::NumLt:
      case Opc::NumLe: case Opc::NumGt: case Opc::NumGe: {
        Scalar lhs = eval(*node.kids[0]);
        Scalar rhs = eval(*node.kids[1]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        double a = lhs.num();
        double b = rhs.num();
        chargeCoercion(lhs);
        chargeCoercion(rhs);
        exec.alu(32);       // sv checks, flag updates, result sv setup
        exec.store(&returnValue);
        exec.store(&returnValue);
        exec.floatOp(2);    // the double op itself (80-bit in Perl 4)
        double value = 0;
        switch (node.op) {
          case Opc::Add: value = a + b; break;
          case Opc::Sub: value = a - b; break;
          case Opc::Mul: value = a * b; break;
          case Opc::Div:
            if (b == 0)
                fatal("perlish: line %d: division by zero", node.line);
            value = a / b;
            break;
          case Opc::Mod: {
            int64_t ia = (int64_t)a;
            int64_t ib = (int64_t)b;
            if (ib == 0)
                fatal("perlish: line %d: modulo by zero", node.line);
            int64_t m = ia % ib;
            if (m != 0 && ((m < 0) != (ib < 0)))
                m += ib; // Perl's modulo follows the right operand
            value = (double)m;
            break;
          }
          case Opc::NumEq: value = a == b; break;
          case Opc::NumNe: value = a != b; break;
          case Opc::NumLt: value = a < b; break;
          case Opc::NumLe: value = a <= b; break;
          case Opc::NumGt: value = a > b; break;
          case Opc::NumGe: value = a >= b; break;
          default: break;
        }
        return Scalar::fromNum(value);
      }
      case Opc::BitAnd: case Opc::BitOr: case Opc::BitXor:
      case Opc::Shl: case Opc::Shr: {
        Scalar lhs = eval(*node.kids[0]);
        Scalar rhs = eval(*node.kids[1]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        int64_t a = (int64_t)lhs.num();
        int64_t b = (int64_t)rhs.num();
        chargeCoercion(lhs);
        chargeCoercion(rhs);
        exec.alu(12);
        exec.shortInt(2);
        int64_t value = 0;
        switch (node.op) {
          case Opc::BitAnd: value = a & b; break;
          case Opc::BitOr: value = a | b; break;
          case Opc::BitXor: value = a ^ b; break;
          case Opc::Shl:
            value = (int64_t)((uint64_t)a << (uint64_t)(b & 63));
            break;
          case Opc::Shr: value = a >> (b & 63); break;
          default: break;
        }
        return Scalar::fromNum((double)value);
      }
      case Opc::Negate: {
        Scalar v = eval(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(6);
        exec.floatOp(1);
        return Scalar::fromNum(-v.num());
      }
      case Opc::Not: {
        Scalar v = eval(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(8);
        exec.branch(v.truthy());
        return Scalar::fromNum(v.truthy() ? 0 : 1);
      }
      case Opc::IntOp: {
        Scalar v = eval(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(6);
        exec.floatOp(1);
        return Scalar::fromNum(std::trunc(v.num()));
      }

      // --- strings --------------------------------------------------------
      case Opc::Concat: {
        Scalar lhs = eval(*node.kids[0]);
        Scalar rhs = eval(*node.kids[1]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        const std::string &a = lhs.str();
        const std::string &b = rhs.str();
        chargeCoercion(lhs);
        chargeCoercion(rhs);
        exec.alu(20); // sv_grow, length bookkeeping
        chargeStringTouch(a.size() + b.size());
        return Scalar::fromStr(a + b);
      }
      case Opc::Repeat: {
        Scalar lhs = eval(*node.kids[0]);
        Scalar rhs = eval(*node.kids[1]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        int n = (int)rhs.num();
        std::string out;
        for (int i = 0; i < n; ++i)
            out += lhs.str();
        exec.alu(14);
        chargeStringTouch(out.size());
        return Scalar::fromStr(out);
      }
      case Opc::StrEq: case Opc::StrNe: case Opc::StrLt:
      case Opc::StrGt: {
        Scalar lhs = eval(*node.kids[0]);
        Scalar rhs = eval(*node.kids[1]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        const std::string &a = lhs.str();
        const std::string &b = rhs.str();
        exec.alu(12);
        chargeStringTouch(std::min(a.size(), b.size()));
        int cmp = a.compare(b);
        double value = node.op == Opc::StrEq   ? cmp == 0
                       : node.op == Opc::StrNe ? cmp != 0
                       : node.op == Opc::StrLt ? cmp < 0
                                               : cmp > 0;
        return Scalar::fromNum(value);
      }
      case Opc::Length: {
        Scalar v = eval(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(8);
        return Scalar::fromNum((double)v.str().size());
      }
      case Opc::Substr: {
        Scalar text = eval(*node.kids[0]);
        Scalar offset = eval(*node.kids[1]);
        Scalar len = node.kids.size() > 2 ? eval(*node.kids[2])
                                          : Scalar::fromNum(1e18);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        const std::string &s = text.str();
        int64_t begin = (int64_t)offset.num();
        if (begin < 0)
            begin += (int64_t)s.size();
        begin = std::clamp<int64_t>(begin, 0, (int64_t)s.size());
        int64_t count =
            std::min<int64_t>((int64_t)len.num(),
                              (int64_t)s.size() - begin);
        if (count < 0)
            count = 0;
        exec.alu(18);
        chargeStringTouch((size_t)count);
        return Scalar::fromStr(s.substr((size_t)begin, (size_t)count));
      }
      case Opc::IndexOf: {
        Scalar hay = eval(*node.kids[0]);
        Scalar needle = eval(*node.kids[1]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        size_t at = hay.str().find(needle.str());
        exec.alu(12);
        chargeStringTouch(at == std::string::npos ? hay.str().size()
                                                  : at + 1);
        return Scalar::fromNum(
            at == std::string::npos ? -1 : (double)at);
      }
      case Opc::Join: {
        Scalar sep = eval(*node.kids[0]);
        List items;
        for (size_t i = 1; i < node.kids.size(); ++i)
            evalList(*node.kids[i], items);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        std::string out;
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += sep.str();
            out += items[i].str();
        }
        exec.alu(10 + (uint32_t)items.size() * 4);
        chargeStringTouch(out.size());
        return Scalar::fromStr(out);
      }
      case Opc::Ord: {
        Scalar v = eval(*node.kids[0]);
        exec.resumeCommand(my);
        exec.alu(6);
        return Scalar::fromNum(
            v.str().empty() ? 0 : (double)(uint8_t)v.str()[0]);
      }
      case Opc::Chr: {
        Scalar v = eval(*node.kids[0]);
        exec.resumeCommand(my);
        exec.alu(6);
        return Scalar::fromStr(std::string(1, (char)(int)v.num()));
      }
      case Opc::Chop: {
        Scalar *slot = lvalueSlot(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        std::string s = slot->str();
        exec.alu(10);
        std::string last;
        if (!s.empty()) {
            last = s.substr(s.size() - 1);
            s.pop_back();
        }
        slot->setStr(std::move(s));
        return Scalar::fromStr(last);
      }
      case Opc::Sprintf:
        return doSprintf(node);

      // --- logic ----------------------------------------------------------
      case Opc::And: {
        Scalar lhs = eval(*node.kids[0]);
        exec.resumeCommand(my);
        exec.alu(4);
        exec.branch(!lhs.truthy());
        if (!lhs.truthy())
            return lhs;
        return eval(*node.kids[1]);
      }
      case Opc::Or: {
        Scalar lhs = eval(*node.kids[0]);
        exec.resumeCommand(my);
        exec.alu(4);
        exec.branch(lhs.truthy());
        if (lhs.truthy())
            return lhs;
        return eval(*node.kids[1]);
      }

      // --- assignment -----------------------------------------------------
      case Opc::Assign: {
        const OpNode &lhs = *node.kids[0];
        if (lhs.op == Opc::ArrayVar) {
            List values;
            evalList(*node.kids[1], values);
            exec.resumeCommand(my);
            MemModelScope mm(exec);
            RoutineScope r(exec, rOp[(size_t)node.op]);
                exec.alu(10 + (uint32_t)values.size() * 4);
            for (const Scalar &v : values)
                exec.store(&v);
            arrays[lhs.slot] = std::move(values);
            return Scalar::fromNum((double)arrays[lhs.slot].size());
        }
        Scalar value = eval(*node.kids[1]);
        Scalar *slot = lvalueSlot(lhs);
        exec.resumeCommand(my);
        exec.alu(6);
        exec.store(slot);
        chargeStringTouch(value.isNumeric() ? 0 : value.str().size());
        *slot = value;
        slot->defined_ = true;
        return value;
      }
      case Opc::AddAssign: case Opc::SubAssign: case Opc::MulAssign: {
        Scalar rhs = eval(*node.kids[1]);
        Scalar *slot = lvalueSlot(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(10);
        exec.floatOp(1);
        exec.load(slot);
        exec.store(slot);
        double a = slot->num();
        double b = rhs.num();
        double value = node.op == Opc::AddAssign   ? a + b
                       : node.op == Opc::SubAssign ? a - b
                                                   : a * b;
        slot->setNum(value);
        slot->defined_ = true;
        return *slot;
      }
      case Opc::ConcatAssign: {
        Scalar rhs = eval(*node.kids[1]);
        Scalar *slot = lvalueSlot(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        std::string s = slot->str() + rhs.str();
        exec.alu(16);
        chargeStringTouch(s.size());
        slot->setStr(std::move(s));
        slot->defined_ = true;
        return *slot;
      }

      // --- regex -----------------------------------------------------------
      case Opc::Match: {
        Scalar target = eval(*node.kids[0]);
        exec.resumeCommand(my);
        auto m = node.rx->search(target.str());
        chargeRegexSteps(m.steps);
        if (m.matched) {
            const std::string &text = target.str();
            captures[0] =
                Scalar::fromStr(text.substr(m.begin, m.end - m.begin));
            size_t copied = m.end - m.begin;
            for (size_t g = 0;
                 g < m.groups.size() && g < 9; ++g) {
                if (m.groups[g].first == std::string::npos) {
                    captures[g + 1] = Scalar();
                    continue;
                }
                captures[g + 1] = Scalar::fromStr(
                    text.substr(m.groups[g].first,
                                m.groups[g].second - m.groups[g].first));
                copied += m.groups[g].second - m.groups[g].first;
            }
            chargeStringTouch(copied);
        }
        bool truth = node.flag ? !m.matched : m.matched;
        return Scalar::fromNum(truth ? 1 : 0);
      }
      case Opc::Subst: {
        // kids[1] is the interpolated replacement text ($1..$9 and $&
        // stay literal for the engine to expand per match).
        std::string repl = node.kids.size() > 1 ? eval(*node.kids[1]).str()
                                                : node.str;
        Scalar *slot = lvalueSlot(*node.kids[0]);
        exec.resumeCommand(my);
        uint64_t steps = 0;
        auto [replaced, count] =
            node.rx->substitute(slot->str(), repl, node.flag, steps);
        chargeRegexSteps(steps);
        chargeStringTouch(replaced.size());
        slot->setStr(std::move(replaced));
        return Scalar::fromNum(count);
      }
      case Opc::SplitOp: {
        // Scalar context: the number of fields.
        List items;
        evalList(node, items, /*retired=*/true);
        return Scalar::fromNum((double)items.size());
      }

      // --- arrays & hashes as builtins ------------------------------------
      case Opc::PushOp: {
        if (node.kids.empty() || node.kids[0]->op != Opc::ArrayVar)
            fatal("perlish: line %d: push needs @array", node.line);
        List values;
        for (size_t i = 1; i < node.kids.size(); ++i)
            evalList(*node.kids[i], values);
        exec.resumeCommand(my);
        MemModelScope mm(exec);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        List &array = arrays[node.kids[0]->slot];
        exec.alu(12);
        for (Scalar &v : values) {
            exec.store(&array);
            array.push_back(std::move(v));
        }
        return Scalar::fromNum((double)array.size());
      }
      case Opc::PopOp: {
        if (node.kids.empty() || node.kids[0]->op != Opc::ArrayVar)
            fatal("perlish: line %d: pop needs @array", node.line);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(10);
        List &array = arrays[node.kids[0]->slot];
        if (array.empty())
            return Scalar();
        Scalar v = std::move(array.back());
        array.pop_back();
        return v;
      }
      case Opc::ShiftOp: {
        int slot = 0; // bare shift means shift(@_)
        if (!node.kids.empty()) {
            if (node.kids[0]->op != Opc::ArrayVar)
                fatal("perlish: line %d: shift needs @array", node.line);
            slot = node.kids[0]->slot;
        }
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(14);
        List &array = arrays[slot];
        if (array.empty())
            return Scalar();
        Scalar v = std::move(array.front());
        array.erase(array.begin());
        return v;
      }
      case Opc::UnshiftOp: {
        if (node.kids.empty() || node.kids[0]->op != Opc::ArrayVar)
            fatal("perlish: line %d: unshift needs @array", node.line);
        List values;
        for (size_t i = 1; i < node.kids.size(); ++i)
            evalList(*node.kids[i], values);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        List &array = arrays[node.kids[0]->slot];
        exec.alu(12 + (uint32_t)array.size() * 2);
        array.insert(array.begin(),
                     std::make_move_iterator(values.begin()),
                     std::make_move_iterator(values.end()));
        return Scalar::fromNum((double)array.size());
      }
      case Opc::Keys: case Opc::Values: {
        // Scalar context: count.
        List items;
        evalList(node, items, /*retired=*/true);
        return Scalar::fromNum((double)items.size());
      }
      case Opc::Defined: {
        const OpNode &target = *node.kids[0];
        exec.alu(6);
        if (target.op == Opc::ScalarVar)
            return Scalar::fromNum(scalars[target.slot].defined_);
        if (target.op == Opc::HashElem) {
            Scalar key = eval(*target.kids[0]);
            exec.resumeCommand(my);
            int steps = 0;
            Scalar *found =
                hashes[target.slot].find(key.str(), steps);
            chargeHashAccess(hashes[target.slot], key.str().size(),
                             steps);
            return Scalar::fromNum(found != nullptr);
        }
        Scalar v = eval(target);
        exec.resumeCommand(my);
        return Scalar::fromNum(v.defined_);
      }
      case Opc::Delete: {
        const OpNode &target = *node.kids[0];
        if (target.op != Opc::HashElem)
            fatal("perlish: line %d: delete needs $hash{key}",
                  node.line);
        Scalar key = eval(*target.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(30);
        bool had = hashes[target.slot].erase(key.str());
        return Scalar::fromNum(had);
      }
      case Opc::Scalar_: {
        return eval(*node.kids[0]);
      }

      // --- control flow ------------------------------------------------------
      case Opc::Block: {
        for (const auto &kid : node.kids) {
            (void)eval(*kid);
            if (ctrl != Ctrl::Normal)
                break;
        }
        return Scalar();
      }
      case Opc::If: {
        Scalar cond = eval(*node.kids[0]);
        exec.resumeCommand(my);
        exec.alu(4);
        exec.branch(cond.truthy());
        if (cond.truthy())
            return eval(*node.kids[1]);
        if (node.kids.size() > 2)
            return eval(*node.kids[2]);
        return Scalar();
      }
      case Opc::While: {
        while (ctrl == Ctrl::Normal) {
            Scalar cond = eval(*node.kids[0]);
            if (ctrl != Ctrl::Normal)
                break;
            exec.resumeCommand(my);
            bool go = node.flag ? !cond.truthy() : cond.truthy();
            exec.alu(4);
            exec.branch(go);
            if (!go)
                break;
            (void)eval(*node.kids[1]);
            if (ctrl == Ctrl::Last) {
                ctrl = Ctrl::Normal;
                break;
            }
            if (ctrl == Ctrl::Next)
                ctrl = Ctrl::Normal;
        }
        return Scalar();
      }
      case Opc::ForC: {
        (void)eval(*node.kids[0]);
        while (ctrl == Ctrl::Normal) {
            Scalar cond = eval(*node.kids[1]);
            if (ctrl != Ctrl::Normal)
                break;
            exec.resumeCommand(my);
            exec.alu(4);
            exec.branch(cond.truthy());
            if (!cond.truthy())
                break;
            (void)eval(*node.kids[3]);
            if (ctrl == Ctrl::Last) {
                ctrl = Ctrl::Normal;
                break;
            }
            if (ctrl == Ctrl::Next)
                ctrl = Ctrl::Normal;
            if (ctrl != Ctrl::Normal)
                break;
            (void)eval(*node.kids[2]);
        }
        return Scalar();
      }
      case Opc::Foreach: {
        List items;
        evalList(*node.kids[0], items);
        exec.resumeCommand(my);
        Scalar saved = scalars[node.slot];
        for (const Scalar &item : items) {
            if (ctrl != Ctrl::Normal)
                break;
            exec.resumeCommand(my);
            exec.alu(8);
            exec.store(&scalars[node.slot]);
            exec.branch(true);
            scalars[node.slot] = item;
            scalars[node.slot].defined_ = true;
            (void)eval(*node.kids[1]);
            if (ctrl == Ctrl::Last) {
                ctrl = Ctrl::Normal;
                break;
            }
            if (ctrl == Ctrl::Next)
                ctrl = Ctrl::Normal;
        }
        scalars[node.slot] = saved;
        return Scalar();
      }
      case Opc::CallSub: {
        auto it = script_.subIndex.find(node.str);
        if (it == script_.subIndex.end())
            fatal("perlish: line %d: no subroutine '%s'", node.line,
                  node.str.c_str());
        List args;
        for (const auto &kid : node.kids)
            evalList(*kid, args);
        exec.resumeCommand(my);
        if (callDepth > 200)
            fatal("perlish: deep recursion in '%s'", node.str.c_str());
        // Frame setup: save @_, bind arguments.
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(36 + (uint32_t)args.size() * 6);
        for (const Scalar &a : args)
            exec.store(&a);
        exec.branch(true);
        List saved_underscore = std::move(arrays[0]);
        arrays[0] = std::move(args);
        size_t local_mark = localStack.size();
        ++callDepth;
        (void)eval(*script_.subs[it->second].body);
        --callDepth;
        // Unwind local() saves.
        while (localStack.size() > local_mark) {
            LocalSave &save = localStack.back();
            exec.store(save.kind == 0
                           ? (void *)&scalars[save.slot]
                           : (void *)&arrays[save.slot]);
            if (save.kind == 0)
                scalars[save.slot] = std::move(save.scalar);
            else
                arrays[save.slot] = std::move(save.array);
            localStack.pop_back();
        }
        arrays[0] = std::move(saved_underscore);
        Scalar value;
        if (ctrl == Ctrl::Return) {
            ctrl = Ctrl::Normal;
            value = std::move(returnValue);
        }
        exec.alu(18); // frame teardown
        return value;
      }
      case Opc::Return: {
        returnValue =
            node.kids.empty() ? Scalar() : eval(*node.kids[0]);
        if (ctrl == Ctrl::Normal)
            ctrl = Ctrl::Return;
        return Scalar();
      }
      case Opc::Last:
        ctrl = Ctrl::Last;
        return Scalar();
      case Opc::Next:
        ctrl = Ctrl::Next;
        return Scalar();
      case Opc::Local: {
        size_t vars = node.kids.size() - (node.flag ? 1 : 0);
        for (size_t i = 0; i < vars; ++i) {
            const OpNode &var = *node.kids[i];
            LocalSave save;
            save.slot = var.slot;
            if (var.op == Opc::ScalarVar) {
                save.kind = 0;
                save.scalar = scalars[var.slot];
            } else {
                save.kind = 1;
                save.array = arrays[var.slot];
            }
            exec.alu(10);
            exec.load(var.op == Opc::ScalarVar
                          ? (void *)&scalars[var.slot]
                          : (void *)&arrays[var.slot]);
            localStack.push_back(std::move(save));
        }
        if (node.flag) {
            Scalar value = eval(*node.kids.back());
            exec.resumeCommand(my);
            const OpNode &first = *node.kids[0];
            if (first.op != Opc::ScalarVar)
                fatal("perlish: line %d: local init needs a scalar",
                      node.line);
            scalars[first.slot] = value;
            scalars[first.slot].defined_ = true;
            exec.store(&scalars[first.slot]);
        }
        return Scalar();
      }

      // --- lists in scalar context --------------------------------------
      case Opc::CommaList: {
        Scalar last;
        for (const auto &kid : node.kids)
            last = eval(*kid);
        return last;
      }
      case Opc::Range: {
        List items;
        evalList(node, items, /*retired=*/true);
        return Scalar::fromNum((double)items.size());
      }

      // --- I/O ------------------------------------------------------------
      case Opc::Print: {
        List items;
        for (const auto &kid : node.kids)
            evalList(*kid, items);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        std::string out;
        for (const Scalar &item : items)
            out += item.str();
        exec.alu(20 + (uint32_t)items.size() * 6);
        chargeStringTouch(out.size());
        int fd = 1;
        if (node.str == "STDERR") {
            fd = 2;
        } else if (node.str != "STDOUT") {
            auto handle = handles.find(node.str);
            if (handle == handles.end() || handle->second.fd < 0)
                fatal("perlish: print to unopened handle %s",
                      node.str.c_str());
            fd = handle->second.fd;
        }
        kernelWrite(fd, out);
        return Scalar::fromNum(1);
      }
      case Opc::OpenF: {
        Scalar spec = eval(*node.kids[0]);
        exec.resumeCommand(my);
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(40);
        std::string path = spec.str();
        vfs::OpenMode mode = vfs::OpenMode::Read;
        if (!path.empty() && path[0] == '>') {
            if (path.size() > 1 && path[1] == '>') {
                mode = vfs::OpenMode::Append;
                path = path.substr(2);
            } else {
                mode = vfs::OpenMode::Write;
                path = path.substr(1);
            }
        } else if (!path.empty() && path[0] == '<') {
            path = path.substr(1);
        }
        path = std::string(trim(path));
        int fd = fs.open(path, mode);
        handles[node.str] = FileHandle{fd, false};
        return Scalar::fromNum(fd >= 0 ? 1 : 0);
      }
      case Opc::CloseF: {
        RoutineScope r(exec, rOp[(size_t)node.op]);
        exec.alu(20);
        auto it = handles.find(node.str);
        if (it != handles.end() && it->second.fd >= 0) {
            fs.close(it->second.fd);
            it->second.fd = -1;
        }
        return Scalar::fromNum(1);
      }
      case Opc::SysRead: {
        // sysread(FH, $buf, $len): one kernel copy, minimal user work.
        if (node.kids.size() < 2)
            fatal("perlish: line %d: sysread needs a buffer and length",
                  node.line);
        Scalar len = eval(*node.kids[1]);
        Scalar *slot = lvalueSlot(*node.kids[0]);
        exec.resumeCommand(my);
        int fd = 0;
        if (node.str != "STDIN") {
            auto it = handles.find(node.str);
            if (it == handles.end() || it->second.fd < 0)
                fatal("perlish: sysread from unopened handle %s",
                      node.str.c_str());
            fd = it->second.fd;
        }
        int64_t want = (int64_t)len.num();
        std::vector<char> buf((size_t)std::max<int64_t>(want, 0));
        int64_t n = fs.read(fd, buf.data(), want);
        slot->setStr(std::string(buf.data(), (size_t)std::max<int64_t>(n, 0)));
        {
            RoutineScope r(exec, rOp[(size_t)node.op]);
            exec.alu(40);
        }
        {
            SystemScope sys(exec);
            RoutineScope r(exec, rKernel);
            exec.alu(80);
            for (int64_t i = 0; i < n; i += 32) {
                exec.loadAt(0x73400000u + (uint32_t)(i % 8192));
                exec.storeAt(0x73500020u + (uint32_t)(i % 8192));
                exec.alu(6);
            }
        }
        return Scalar::fromNum((double)std::max<int64_t>(n, 0));
      }
      case Opc::ReadLine: {
        std::string line = readLine(node.str);
        if (line.empty())
            return Scalar(); // undef at EOF
        Scalar v = Scalar::fromStr(std::move(line));
        return v;
      }
      case Opc::Die: {
        Scalar msg =
            node.kids.empty() ? Scalar::fromStr("Died") : eval(*node.kids[0]);
        exec.resumeCommand(my);
        kernelWrite(2, msg.str());
        exitCode = 1;
        ctrl = Ctrl::Exit;
        return Scalar();
      }
      case Opc::Exit: {
        Scalar code =
            node.kids.empty() ? Scalar() : eval(*node.kids[0]);
        exitCode = (int)code.num();
        ctrl = Ctrl::Exit;
        return Scalar();
      }
      default:
        fatal("perlish: line %d: cannot evaluate op %s", node.line,
              opcName(node.op));
    }
}

Scalar
Interp::doSprintf(const OpNode &node)
{
    Scalar fmt = eval(*node.kids[0]);
    List args;
    for (size_t i = 1; i < node.kids.size(); ++i)
        evalList(*node.kids[i], args);
    exec.resumeCommand(opCommand[(size_t)Opc::Sprintf]);
    RoutineScope r(exec, rOp[(size_t)node.op]);

    const std::string &f = fmt.str();
    std::string out;
    size_t arg = 0;
    for (size_t i = 0; i < f.size(); ++i) {
        if (f[i] != '%') {
            out.push_back(f[i]);
            continue;
        }
        ++i;
        if (i >= f.size())
            break;
        if (f[i] == '%') {
            out.push_back('%');
            continue;
        }
        // Parse flags/width: [-0]*[0-9]*
        std::string spec = "%";
        while (i < f.size() && (f[i] == '-' || f[i] == '0'))
            spec.push_back(f[i++]);
        while (i < f.size() && std::isdigit((unsigned char)f[i]))
            spec.push_back(f[i++]);
        if (i >= f.size())
            break;
        char conv = f[i];
        Scalar value = arg < args.size() ? args[arg++] : Scalar();
        switch (conv) {
          case 'd':
            spec += "lld";
            out += format(spec.c_str(), (long long)value.num());
            break;
          case 'x':
            spec += "llx";
            out += format(spec.c_str(),
                          (unsigned long long)value.num());
            break;
          case 'c':
            out.push_back((char)(int)value.num());
            break;
          case 'f':
            spec.push_back('f');
            out += format(spec.c_str(), value.num());
            break;
          case 's':
            spec.push_back('s');
            out += format(spec.c_str(), value.str().c_str());
            break;
          default:
            fatal("perlish: sprintf: unsupported conversion %%%c", conv);
        }
    }
    exec.alu(30 + (uint32_t)f.size() * 2);
    chargeStringTouch(out.size());
    return Scalar::fromStr(out);
}

} // namespace interp::perlish
