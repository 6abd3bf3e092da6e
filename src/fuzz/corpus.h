/**
 * @file
 * The replayable corpus format for fuzz reproducers.
 *
 * A corpus file is a standard assembly listing (sassir/parser.h)
 * with the launch/buffer contract carried in ";!" comment directives
 * the assembler ignores, so every reproducer is simultaneously a
 * valid .sass listing and a complete replay recipe:
 *
 *   ; sassi_fuzz reproducer
 *   ;! sassi-fuzz 1
 *   ;! grid 2
 *   ;! block 64
 *   ;! inwords 256
 *   ;! outwords 8
 *   ;! accwords 64
 *   ;! inputseed 1
 *   ;! seed 42 7
 *   .kernel fuzz
 *       ...
 *   .endkernel
 *
 * Minimized failures land in tests/fuzz/corpus/; the corpus-replay
 * regression test re-runs every committed file through the full
 * differential oracle, so each past failure stays fixed forever.
 */

#ifndef SASSI_FUZZ_CORPUS_H
#define SASSI_FUZZ_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program.h"

namespace sassi::fuzz {

/** Render a program as a self-describing corpus file. */
std::string formatProgram(const FuzzProgram &p);

/**
 * Content fingerprint of a kernel: its name, register/local/shared
 * budgets, and every instruction field. Any rewrite of the kernel
 * changes it.
 */
uint64_t kernelFingerprint(const ir::Kernel &kernel);

/**
 * Content identity of a program: a hash of the kernel (via
 * kernelFingerprint), the launch geometry, the buffer layout, and
 * the input seed — everything that determines
 * behavior, and nothing that doesn't. The provenance directives
 * (";! seed S I") are deliberately excluded, so two campaign indices
 * arriving at byte-identical behavior (e.g.\ the same mutation of
 * the same parent) hash equal and dedup; hashing the formatted text
 * would keep them apart.
 */
uint64_t programContentHash(const FuzzProgram &p);

/**
 * The canonical reproducer filename for a program inside dir:
 * "<dir>/crash-<16 hex digits of programContentHash>.sass".
 * Content-keyed names fix the historical collision where two
 * distinct failures minimizing to the same program raced on one
 * seed/index-derived filename — equal content now converges on one
 * file by design, and distinct content cannot collide.
 */
std::string reproducerPath(const std::string &dir,
                           const FuzzProgram &p);

/**
 * Write a program to its content-keyed reproducer path, creating
 * dir as needed. Idempotent: an existing file with this content
 * hash is left untouched. @return the path written (or found).
 */
std::string saveReproducer(const FuzzProgram &p,
                           const std::string &dir);

/**
 * Parse a corpus file back into a FuzzProgram.
 * Calls fatal() (like the assembler) on malformed input.
 */
FuzzProgram parseProgram(const std::string &text);

/** Write a corpus file; calls fatal() when the file can't be opened. */
void saveProgram(const FuzzProgram &p, const std::string &path);

/** Read and parse a corpus file. */
FuzzProgram loadProgram(const std::string &path);

/**
 * All corpus files (*.sass) directly inside dir, sorted by name so
 * replay order is deterministic. An absent directory is an empty
 * corpus, not an error.
 */
std::vector<std::string> listCorpus(const std::string &dir);

} // namespace sassi::fuzz

#endif // SASSI_FUZZ_CORPUS_H
