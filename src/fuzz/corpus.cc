#include "fuzz/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sassir/parser.h"
#include "util/hash.h"
#include "util/logging.h"

namespace sassi::fuzz {

namespace {

constexpr int kFormatVersion = 1;

} // namespace

uint64_t
kernelFingerprint(const ir::Kernel &kernel)
{
    // FNV-1a over explicit fields (never raw struct bytes: padding
    // is indeterminate). Any rewrite of the kernel — SASSI splicing,
    // register renumbering, target fixups — changes the print.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (char c : kernel.name)
        mix(static_cast<uint8_t>(c));
    mix(static_cast<uint64_t>(kernel.numRegs));
    mix(kernel.localBytes);
    mix(kernel.sharedBytes);
    mix(kernel.isShader ? 1 : 0);
    mix(kernel.code.size());
    for (const sass::Instruction &ins : kernel.code) {
        mix(static_cast<uint64_t>(ins.op));
        mix(static_cast<uint64_t>(ins.guard) |
            (ins.guardNeg ? 0x100u : 0u));
        mix(ins.dst);
        mix(ins.srcA);
        mix(ins.srcB);
        mix(ins.srcC);
        mix(ins.bIsImm ? 1 : 0);
        mix(static_cast<uint64_t>(ins.imm));
        mix(static_cast<uint64_t>(ins.pDst) |
            (static_cast<uint64_t>(ins.pSrc) << 8) |
            (ins.pSrcNeg ? 0x10000u : 0u));
        mix(static_cast<uint64_t>(ins.cmp) |
            (static_cast<uint64_t>(ins.logic) << 8) |
            (static_cast<uint64_t>(ins.vote) << 16) |
            (static_cast<uint64_t>(ins.shfl) << 24) |
            (static_cast<uint64_t>(ins.atom) << 32) |
            (static_cast<uint64_t>(ins.mufu) << 40) |
            (static_cast<uint64_t>(ins.sreg) << 48) |
            (static_cast<uint64_t>(ins.space) << 56));
        mix(static_cast<uint64_t>(ins.width) |
            (ins.setCC ? 0x100u : 0u) | (ins.useCC ? 0x200u : 0u) |
            (ins.sExt ? 0x400u : 0u) |
            (ins.synthetic ? 0x800u : 0u) |
            (ins.spillFill ? 0x1000u : 0u));
        mix(static_cast<uint64_t>(
            static_cast<int64_t>(ins.target)));
    }
    return h;
}

uint64_t
programContentHash(const FuzzProgram &p)
{
    const ir::Kernel *k = p.kernel();
    uint64_t h = k ? kernelFingerprint(*k) : kFnvBasis;
    h = fnv1aU64(p.gridX, h);
    h = fnv1aU64(p.blockX, h);
    h = fnv1aU64(p.inWords, h);
    h = fnv1aU64(p.outWordsPerThread, h);
    h = fnv1aU64(p.accWords, h);
    h = fnv1aU64(p.inputSeed, h);
    return h;
}

std::string
reproducerPath(const std::string &dir, const FuzzProgram &p)
{
    char name[32];
    std::snprintf(name, sizeof(name), "crash-%016llx.sass",
                  static_cast<unsigned long long>(
                      programContentHash(p)));
    return (std::filesystem::path(dir) / name).string();
}

std::string
saveReproducer(const FuzzProgram &p, const std::string &dir)
{
    std::string path = reproducerPath(dir, p);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        saveProgram(p, path);
    return path;
}

std::string
formatProgram(const FuzzProgram &p)
{
    std::ostringstream out;
    out << "; sassi_fuzz reproducer (replay: sassi_fuzz --replay "
           "<file>)\n";
    out << ";! sassi-fuzz " << kFormatVersion << '\n';
    out << ";! grid " << p.gridX << '\n';
    out << ";! block " << p.blockX << '\n';
    out << ";! inwords " << p.inWords << '\n';
    out << ";! outwords " << p.outWordsPerThread << '\n';
    out << ";! accwords " << p.accWords << '\n';
    out << ";! inputseed " << p.inputSeed << '\n';
    out << ";! seed " << p.seed << ' ' << p.index << '\n';
    const ir::Kernel *k = p.kernel();
    fatal_if(!k, "formatProgram: no kernel named '%s'",
             p.kernelName.c_str());
    out << ir::printKernel(*k);
    return out.str();
}

FuzzProgram
parseProgram(const std::string &text)
{
    FuzzProgram p;
    bool versioned = false;

    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.rfind(";!", 0) != 0)
            continue;
        std::istringstream ds(line.substr(2));
        std::string key;
        ds >> key;
        uint64_t a = 0, b = 0;
        ds >> a >> b;
        if (key == "sassi-fuzz") {
            fatal_if(a != kFormatVersion,
                     "line %d: unsupported corpus version %llu", lineno,
                     static_cast<unsigned long long>(a));
            versioned = true;
        } else if (key == "grid") {
            p.gridX = static_cast<uint32_t>(a);
        } else if (key == "block") {
            p.blockX = static_cast<uint32_t>(a);
        } else if (key == "inwords") {
            p.inWords = static_cast<uint32_t>(a);
        } else if (key == "outwords") {
            p.outWordsPerThread = static_cast<uint32_t>(a);
        } else if (key == "accwords") {
            p.accWords = static_cast<uint32_t>(a);
        } else if (key == "inputseed") {
            p.inputSeed = a;
        } else if (key == "seed") {
            p.seed = a;
            p.index = b;
        } else {
            fatal("line %d: unknown corpus directive ';! %s'", lineno,
                  key.c_str());
        }
    }
    fatal_if(!versioned, "corpus file lacks the ';! sassi-fuzz' header");
    fatal_if(p.gridX == 0 || p.blockX == 0 || p.blockX > 1024,
             "corpus file has invalid launch geometry %ux%u", p.gridX,
             p.blockX);

    // The assembler strips every ';' comment, directives included.
    p.module = ir::parseAssembly(text);
    fatal_if(!p.kernel(), "corpus file defines no kernel '%s'",
             p.kernelName.c_str());
    return p;
}

void
saveProgram(const FuzzProgram &p, const std::string &path)
{
    std::filesystem::path fp(path);
    if (fp.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(fp.parent_path(), ec);
    }
    std::ofstream out(path);
    fatal_if(!out, "cannot write corpus file '%s'", path.c_str());
    out << formatProgram(p);
}

FuzzProgram
loadProgram(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read corpus file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseProgram(text.str());
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return out;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".sass") {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace sassi::fuzz
