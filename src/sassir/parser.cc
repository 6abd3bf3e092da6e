#include "sassir/parser.h"

#include <cctype>
#include <map>
#include <sstream>

#include "util/logging.h"

namespace sassi::ir {

using namespace sass;

namespace {

/** A parsed operand token. */
struct Operand
{
    enum class Kind { Reg, Pred, Imm, Addr, Const, SReg, Name } kind;
    RegId reg = RZ;
    PredId pred = PT;
    bool neg = false;
    int64_t imm = 0;
    SpecialReg sreg = SpecialReg::TidX;
    std::string name;
};

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &line)
{
    std::string s = line;
    for (char marker : {';', '#'}) {
        auto pos = s.find(marker);
        if (pos != std::string::npos)
            s = s.substr(0, pos);
    }
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

int64_t
parseInt(const std::string &tok, int lineno)
{
    std::string t = tok;
    bool neg = false;
    if (!t.empty() && t[0] == '-') {
        neg = true;
        t = t.substr(1);
    }
    int64_t v = 0;
    try {
        if (t.rfind("0x", 0) == 0)
            v = static_cast<int64_t>(std::stoull(t.substr(2), nullptr, 16));
        else
            v = std::stoll(t);
    } catch (...) {
        fatal("line %d: bad integer literal '%s'", lineno, tok.c_str());
    }
    return neg ? -v : v;
}

bool
looksLikeInt(const std::string &t)
{
    if (t.empty())
        return false;
    size_t i = t[0] == '-' ? 1 : 0;
    if (i >= t.size())
        return false;
    return std::isdigit(static_cast<unsigned char>(t[i]));
}

Operand
parseOperand(const std::string &tok, int lineno)
{
    Operand op;
    std::string t = tok;
    if (t.empty())
        fatal("line %d: empty operand", lineno);

    if (t[0] == '[') {
        op.kind = Operand::Kind::Addr;
        fatal_if(t.back() != ']', "line %d: unterminated address '%s'",
                 lineno, tok.c_str());
        std::string body = t.substr(1, t.size() - 2);
        size_t plus = body.find_first_of("+-", 1);
        std::string base = plus == std::string::npos
            ? body : body.substr(0, plus);
        if (base == "RZ") {
            op.reg = RZ;
        } else {
            fatal_if(base.empty() || base[0] != 'R',
                     "line %d: bad address base '%s'", lineno, tok.c_str());
            op.reg = static_cast<RegId>(parseInt(base.substr(1), lineno));
        }
        if (plus != std::string::npos) {
            std::string off = body.substr(plus);
            if (!off.empty() && off[0] == '+')
                off = off.substr(1);
            op.imm = parseInt(off, lineno);
        }
        return op;
    }
    if (t.rfind("c[", 0) == 0) {
        op.kind = Operand::Kind::Const;
        auto lb = t.find('[', 2);
        fatal_if(lb == std::string::npos || t.back() != ']',
                 "line %d: bad constant operand '%s'", lineno, tok.c_str());
        op.imm = parseInt(t.substr(lb + 1, t.size() - lb - 2), lineno);
        return op;
    }
    if (t[0] == '!') {
        op.neg = true;
        t = t.substr(1);
    }
    if (t == "RZ") {
        op.kind = Operand::Kind::Reg;
        op.reg = RZ;
        return op;
    }
    if (t == "PT") {
        op.kind = Operand::Kind::Pred;
        op.pred = PT;
        return op;
    }
    if (t.size() >= 2 && t[0] == 'R' &&
        std::isdigit(static_cast<unsigned char>(t[1]))) {
        op.kind = Operand::Kind::Reg;
        op.reg = static_cast<RegId>(parseInt(t.substr(1), lineno));
        return op;
    }
    if (t.size() >= 2 && t[0] == 'P' &&
        std::isdigit(static_cast<unsigned char>(t[1]))) {
        op.kind = Operand::Kind::Pred;
        op.pred = static_cast<PredId>(parseInt(t.substr(1), lineno));
        return op;
    }
    if (t.rfind("SR_", 0) == 0) {
        op.kind = Operand::Kind::SReg;
        for (int i = 0; i <= static_cast<int>(SpecialReg::Clock); ++i) {
            if (sregName(static_cast<SpecialReg>(i)) == t) {
                op.sreg = static_cast<SpecialReg>(i);
                return op;
            }
        }
        fatal("line %d: unknown special register '%s'", lineno, t.c_str());
    }
    if (looksLikeInt(t)) {
        op.kind = Operand::Kind::Imm;
        op.imm = parseInt(t, lineno);
        return op;
    }
    op.kind = Operand::Kind::Name;
    op.name = t;
    return op;
}

/** Split an operand list on top-level commas. */
std::vector<std::string>
splitOperands(const std::string &s, int lineno)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (char c : s) {
        if (c == '[')
            ++depth;
        if (c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(cleanLine(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    std::string last = cleanLine(cur);
    if (!last.empty())
        out.push_back(last);
    fatal_if(depth != 0, "line %d: unbalanced brackets", lineno);
    return out;
}

template <typename Names>
int
findName(const Names &names, int count, const std::string &tok)
{
    for (int i = 0; i < count; ++i) {
        if (tok == names[i])
            return i;
    }
    return -1;
}

const char *kVoteNames[] = {"ALL", "ANY", "BALLOT"};
const char *kShflNames[] = {"IDX", "UP", "DOWN", "BFLY"};
const char *kAtomNames[] = {"ADD", "MIN", "MAX", "AND", "OR", "XOR",
                            "EXCH", "CAS"};
const char *kMufuNames[] = {"RCP", "SQRT", "RSQ", "LG2", "EX2", "SIN",
                            "COS"};
const char *kLogicNames[] = {"AND", "OR", "XOR", "PASS_B", "NOT"};
const char *kCmpNames[] = {"LT", "EQ", "LE", "GT", "NE", "GE"};

/** Parse one instruction line into ins; label operands go to labelRef. */
void
parseInstruction(const std::string &line, int lineno, Instruction &ins,
                 std::string &labelRef)
{
    std::string s = line;

    // Guard prefix.
    if (s[0] == '@') {
        size_t sp = s.find(' ');
        fatal_if(sp == std::string::npos, "line %d: lone guard", lineno);
        std::string g = s.substr(1, sp - 1);
        if (!g.empty() && g[0] == '!') {
            ins.guardNeg = true;
            g = g.substr(1);
        }
        fatal_if(g.size() < 2 || g[0] != 'P',
                 "line %d: bad guard '%s'", lineno, g.c_str());
        ins.guard = static_cast<PredId>(parseInt(g.substr(1), lineno));
        s = cleanLine(s.substr(sp + 1));
    }

    // Mnemonic and suffixes.
    size_t sp = s.find(' ');
    std::string mnem = sp == std::string::npos ? s : s.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : s.substr(sp + 1);

    std::vector<std::string> parts;
    {
        std::stringstream ms(mnem);
        std::string tok;
        while (std::getline(ms, tok, '.'))
            parts.push_back(tok);
    }
    ins.op = opFromName(parts[0]);
    fatal_if(ins.op == Opcode::NumOpcodes, "line %d: unknown opcode '%s'",
             lineno, parts[0].c_str());

    // Default spaces by opcode.
    switch (ins.op) {
      case Opcode::LD: case Opcode::ST:
        ins.space = MemSpace::Generic; break;
      case Opcode::LDG: case Opcode::STG: case Opcode::ATOM:
      case Opcode::RED:
        ins.space = MemSpace::Global; break;
      case Opcode::LDS: case Opcode::STS: case Opcode::ATOMS:
        ins.space = MemSpace::Shared; break;
      case Opcode::LDL: case Opcode::STL:
        ins.space = MemSpace::Local; break;
      case Opcode::LDC:
        ins.space = MemSpace::Constant; break;
      case Opcode::TLD:
        ins.space = MemSpace::Texture; break;
      case Opcode::SULD: case Opcode::SUST:
        ins.space = MemSpace::Surface; break;
      case Opcode::ISETP:
        ins.sExt = true; break;
      default:
        break;
    }

    for (size_t i = 1; i < parts.size(); ++i) {
        const std::string &m = parts[i];
        int idx;
        if (m == "CC") {
            ins.setCC = true;
        } else if (m == "X") {
            ins.useCC = true;
        } else if (m == "E") {
            // Generic-made-explicit; space already set by opcode.
        } else if (m == "U32") {
            ins.sExt = false;
        } else if (m == "S") {
            ins.sExt = true;
        } else if ((ins.op == Opcode::IMNMX ||
                    ins.op == Opcode::FMNMX) && m == "MIN") {
            ins.cmp = CmpOp::LT;
        } else if ((ins.op == Opcode::IMNMX ||
                    ins.op == Opcode::FMNMX) && m == "MAX") {
            ins.cmp = CmpOp::GT;
        } else if (m == "8" || m == "16" || m == "32" || m == "64" ||
                   m == "128") {
            ins.width = static_cast<uint8_t>(parseInt(m, lineno) / 8);
        } else if (ins.op == Opcode::VOTE &&
                   (idx = findName(kVoteNames, 3, m)) >= 0) {
            ins.vote = static_cast<VoteMode>(idx);
        } else if (ins.op == Opcode::SHFL &&
                   (idx = findName(kShflNames, 4, m)) >= 0) {
            ins.shfl = static_cast<ShflMode>(idx);
        } else if ((ins.op == Opcode::ATOM || ins.op == Opcode::ATOMS ||
                    ins.op == Opcode::RED) &&
                   (idx = findName(kAtomNames, 8, m)) >= 0) {
            ins.atom = static_cast<AtomOp>(idx);
        } else if (ins.op == Opcode::MUFU &&
                   (idx = findName(kMufuNames, 7, m)) >= 0) {
            ins.mufu = static_cast<MufuOp>(idx);
        } else if ((ins.op == Opcode::LOP || ins.op == Opcode::PSETP) &&
                   (idx = findName(kLogicNames, 5, m)) >= 0) {
            ins.logic = static_cast<LogicOp>(idx);
        } else if ((idx = findName(kCmpNames, 6, m)) >= 0) {
            ins.cmp = static_cast<CmpOp>(idx);
        } else {
            fatal("line %d: unknown modifier '.%s' on %s", lineno,
                  m.c_str(), parts[0].c_str());
        }
    }

    std::vector<Operand> ops;
    for (const auto &tok : splitOperands(rest, lineno))
        ops.push_back(parseOperand(tok, lineno));

    auto need = [&](size_t n) {
        fatal_if(ops.size() != n, "line %d: %s expects %zu operands, got "
                 "%zu", lineno, parts[0].c_str(), n, ops.size());
    };
    auto asReg = [&](size_t i) -> RegId {
        fatal_if(ops[i].kind != Operand::Kind::Reg,
                 "line %d: operand %zu of %s must be a register", lineno,
                 i, parts[0].c_str());
        return ops[i].reg;
    };
    auto asPred = [&](size_t i) -> PredId {
        fatal_if(ops[i].kind != Operand::Kind::Pred,
                 "line %d: operand %zu of %s must be a predicate", lineno,
                 i, parts[0].c_str());
        return ops[i].pred;
    };
    auto setB = [&](size_t i) {
        if (ops[i].kind == Operand::Kind::Imm) {
            ins.bIsImm = true;
            ins.imm = ops[i].imm;
        } else {
            ins.srcB = asReg(i);
        }
    };
    auto setAddr = [&](size_t i) {
        fatal_if(ops[i].kind != Operand::Kind::Addr,
                 "line %d: operand %zu of %s must be an address", lineno,
                 i, parts[0].c_str());
        ins.srcA = ops[i].reg;
        ins.imm = ops[i].imm;
    };
    auto setTarget = [&](size_t i) {
        if (ops[i].kind == Operand::Kind::Imm)
            ins.target = static_cast<int32_t>(ops[i].imm);
        else if (ops[i].kind == Operand::Kind::Name)
            labelRef = ops[i].name;
        else
            fatal("line %d: bad branch target", lineno);
    };

    switch (ins.op) {
      case Opcode::NOP: case Opcode::RET: case Opcode::EXIT:
      case Opcode::BPT: case Opcode::SYNC: case Opcode::BAR:
      case Opcode::MEMBAR:
        need(0);
        break;
      case Opcode::BRA: case Opcode::SSY: case Opcode::JCAL:
        need(1);
        setTarget(0);
        break;
      case Opcode::MOV: case Opcode::POPC: case Opcode::FLO:
      case Opcode::I2F: case Opcode::F2I: case Opcode::MUFU:
      case Opcode::L2G:
        need(2);
        ins.dst = asReg(0);
        ins.srcA = asReg(1);
        break;
      case Opcode::MOV32I:
        need(2);
        ins.dst = asReg(0);
        ins.bIsImm = true;
        ins.imm = ops[1].imm;
        break;
      case Opcode::SEL:
        need(4);
        ins.dst = asReg(0);
        ins.srcA = asReg(1);
        ins.srcB = asReg(2);
        ins.pSrc = asPred(3);
        ins.pSrcNeg = ops[3].neg;
        break;
      case Opcode::IMAD: case Opcode::FFMA:
        need(4);
        ins.dst = asReg(0);
        ins.srcA = asReg(1);
        setB(2);
        ins.srcC = asReg(3);
        break;
      case Opcode::ISETP: case Opcode::FSETP:
        need(3);
        ins.pDst = asPred(0);
        ins.srcA = asReg(1);
        setB(2);
        break;
      case Opcode::PSETP:
        need(3);
        ins.pDst = asPred(0);
        ins.pSrc = asPred(1);
        ins.pSrcNeg = ops[1].neg;
        ins.imm = static_cast<int64_t>(asPred(2)) | (ops[2].neg ? 8 : 0);
        break;
      case Opcode::P2R:
        need(2);
        ins.dst = asReg(0);
        ins.bIsImm = true;
        ins.imm = ops[1].imm;
        break;
      case Opcode::R2P:
        need(2);
        ins.srcA = asReg(0);
        ins.bIsImm = true;
        ins.imm = ops[1].imm;
        break;
      case Opcode::LD: case Opcode::LDG: case Opcode::LDS:
      case Opcode::LDL: case Opcode::TLD: case Opcode::SULD:
        need(2);
        ins.dst = asReg(0);
        setAddr(1);
        break;
      case Opcode::LDC:
        need(2);
        ins.dst = asReg(0);
        fatal_if(ops[1].kind != Operand::Kind::Const,
                 "line %d: LDC needs a c[0x0][..] operand", lineno);
        ins.imm = ops[1].imm;
        break;
      case Opcode::ST: case Opcode::STG: case Opcode::STS:
      case Opcode::STL: case Opcode::SUST:
        need(2);
        setAddr(0);
        ins.srcB = asReg(1);
        break;
      case Opcode::ATOM: case Opcode::ATOMS:
        need(ins.atom == AtomOp::Cas ? 4u : 3u);
        ins.dst = asReg(0);
        setAddr(1);
        ins.srcB = asReg(2);
        if (ins.atom == AtomOp::Cas)
            ins.srcC = asReg(3);
        break;
      case Opcode::RED:
        need(2);
        setAddr(0);
        ins.srcB = asReg(1);
        break;
      case Opcode::VOTE:
        need(2);
        if (ins.vote == VoteMode::Ballot)
            ins.dst = asReg(0);
        else
            ins.pDst = asPred(0);
        ins.pSrc = asPred(1);
        ins.pSrcNeg = ops[1].neg;
        break;
      case Opcode::SHFL:
        need(3);
        ins.dst = asReg(0);
        ins.srcA = asReg(1);
        setB(2);
        break;
      case Opcode::S2R:
        need(2);
        ins.dst = asReg(0);
        fatal_if(ops[1].kind != Operand::Kind::SReg,
                 "line %d: S2R needs a special register", lineno);
        ins.sreg = ops[1].sreg;
        break;
      default:
        // Two-source ALU shape.
        need(3);
        ins.dst = asReg(0);
        ins.srcA = asReg(1);
        setB(2);
        break;
    }
}

} // namespace

Module
parseAssembly(const std::string &text)
{
    Module mod;
    Kernel *cur = nullptr;
    std::map<std::string, int> labels;
    std::vector<std::pair<size_t, std::string>> fixups;
    int max_reg = -1;
    int decl_regs = -1;

    auto finishKernel = [&]() {
        if (!cur)
            return;
        for (auto &[idx, name] : fixups) {
            auto it = labels.find(name);
            fatal_if(it == labels.end(), "undefined label '%s' in kernel "
                     "'%s'", name.c_str(), cur->name.c_str());
            cur->code[idx].target = it->second;
        }
        cur->labels = labels;
        // A .regs declaration wins; otherwise derive from usage. The
        // declaration exists so a printed kernel round-trips exactly
        // (a minimizer-shrunk kernel can use fewer registers than
        // its budget, and the budget is part of the kernel
        // fingerprint and so of reproducer content identity).
        // A register beyond the declared budget would only panic at
        // launch; reject it here like any other malformed listing.
        fatal_if(max_reg >= decl_regs && decl_regs >= 0,
                 "register R%d beyond .regs %d in kernel '%s'", max_reg,
                 decl_regs, cur->name.c_str());
        cur->numRegs = decl_regs >= 0 ? decl_regs
                                      : std::max(max_reg + 1, 18);
        labels.clear();
        fixups.clear();
        max_reg = -1;
        decl_regs = -1;
        cur = nullptr;
    };

    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        if (line[0] == '.') {
            std::istringstream ds(line);
            std::string dir, arg;
            ds >> dir >> arg;
            if (dir == ".kernel") {
                finishKernel();
                mod.kernels.emplace_back();
                cur = &mod.kernels.back();
                cur->name = arg;
                cur->fnAddr = 0x1000;
            } else if (dir == ".endkernel") {
                finishKernel();
            } else if (dir == ".regs") {
                fatal_if(!cur, "line %d: .regs outside kernel", lineno);
                decl_regs =
                    static_cast<int>(parseInt(arg, lineno));
            } else if (dir == ".local") {
                fatal_if(!cur, "line %d: .local outside kernel", lineno);
                cur->localBytes =
                    static_cast<uint32_t>(parseInt(arg, lineno));
            } else if (dir == ".shared") {
                fatal_if(!cur, "line %d: .shared outside kernel", lineno);
                cur->sharedBytes =
                    static_cast<uint32_t>(parseInt(arg, lineno));
            } else {
                fatal("line %d: unknown directive '%s'", lineno,
                      dir.c_str());
            }
            continue;
        }

        fatal_if(!cur, "line %d: instruction outside .kernel", lineno);

        if (line.back() == ':') {
            std::string name = line.substr(0, line.size() - 1);
            fatal_if(labels.count(name), "line %d: duplicate label '%s'",
                     lineno, name.c_str());
            labels[name] = static_cast<int>(cur->code.size());
            continue;
        }

        Instruction ins;
        std::string label_ref;
        parseInstruction(line, lineno, ins, label_ref);
        if (!label_ref.empty())
            fixups.emplace_back(cur->code.size(), label_ref);
        for (auto r : ins.dstRegs())
            max_reg = std::max(max_reg, static_cast<int>(r));
        for (auto r : ins.srcRegs())
            max_reg = std::max(max_reg, static_cast<int>(r));
        cur->code.push_back(ins);
    }
    finishKernel();
    return mod;
}

std::string
printKernel(const Kernel &kernel)
{
    // Give every branch/SSY target a label.
    std::map<int, std::string> target_labels;
    for (const auto &ins : kernel.code) {
        if ((ins.op == Opcode::BRA || ins.op == Opcode::SSY ||
             ins.op == Opcode::JCAL) && ins.target >= 0 &&
            ins.target < static_cast<int>(kernel.code.size())) {
            if (!target_labels.count(ins.target)) {
                target_labels[ins.target] =
                    "L" + std::to_string(target_labels.size());
            }
        }
    }

    std::ostringstream out;
    out << ".kernel " << kernel.name << '\n';
    out << ".regs " << kernel.numRegs << '\n';
    out << ".local " << kernel.localBytes << '\n';
    if (kernel.sharedBytes)
        out << ".shared " << kernel.sharedBytes << '\n';
    for (size_t pc = 0; pc < kernel.code.size(); ++pc) {
        auto lbl = target_labels.find(static_cast<int>(pc));
        if (lbl != target_labels.end())
            out << lbl->second << ":\n";
        const Instruction &ins = kernel.code[pc];
        std::string text = ins.disasm();
        if ((ins.op == Opcode::BRA || ins.op == Opcode::SSY ||
             ins.op == Opcode::JCAL) &&
            target_labels.count(ins.target)) {
            // Replace the numeric target with its label.
            auto sp = text.rfind(' ');
            text = text.substr(0, sp + 1) + target_labels[ins.target];
        }
        out << "    " << text << '\n';
    }
    out << ".endkernel\n";
    return out.str();
}

} // namespace sassi::ir
