// Bit-identity pins for the cycle-level core models.
//
// Two kinds of pinned digests, both recorded from a trusted build:
//   * an FNV-1a chain of state_hash() after every cycle of a full golden
//     run -- every OoO workload and an InO subset -- so any change to a
//     core's cycle-by-cycle state, not only to its final outcome, moves
//     the pin;
//   * an FNV-1a digest of the per-FF outcome counters of one-injection-
//     per-FF OoO campaigns on gcc.  The resilience configs drive flips into
//     the issue-queue valid/ready/tag flip-flops, RoB squashes, IR ring
//     rollbacks and checkpoint restores, i.e. through every path that has
//     to rebuild derived (non-FF) pipeline state.
// A mismatch prints the observed digest.  Update a pin only for an
// intended change of core behaviour, and say so in the change log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/core.h"
#include "inject/campaign.h"
#include "isa/assembler.h"
#include "util/hash.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

constexpr std::uint64_t kMaxCycles = 20'000'000;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return util::fnv1a64(&v, sizeof v, h);
}

isa::Program bench(const std::string& name) {
  return isa::assemble(workloads::build_benchmark(name));
}

// FNV chain of the per-cycle state_hash over a full error-free run, closed
// with the run's outcome.
std::uint64_t golden_chain(const std::string& core_name,
                           const std::string& bench_name) {
  const isa::Program prog = bench(bench_name);
  auto core = arch::make_core(core_name);
  core->begin(prog, nullptr, nullptr);
  std::uint64_t h = util::fnv1a64(nullptr, 0);
  while (core->step_to(core->cycle() + 1, kMaxCycles)) {
    h = fnv(h, core->state_hash());
  }
  const arch::CoreRunResult r = core->current_result();
  h = fnv(h, static_cast<std::uint64_t>(r.status));
  h = fnv(h, r.cycles);
  h = fnv(h, r.instrs);
  for (const std::uint32_t w : r.output) h = fnv(h, w);
  return h;
}

struct GoldenPin {
  const char* core;
  const char* bench;
  std::uint64_t chain;
};

// Every OoO workload, plus an InO subset covering the SPEC and PERFECT
// kernels the benchmark campaigns run.
constexpr GoldenPin kGoldenPins[] = {
    {"OoO", "bzip2", 0xe338d309f23d0d74ULL},
    {"OoO", "crafty", 0x4ac7468318f88413ULL},
    {"OoO", "gzip", 0x5b142ebd79f1a4e1ULL},
    {"OoO", "mcf", 0x55cdd2d2516ff354ULL},
    {"OoO", "parser", 0xaba6120af7273362ULL},
    {"OoO", "gcc", 0x5990ec83910e84a6ULL},
    {"OoO", "vortex", 0xc92441321d2e0e34ULL},
    {"OoO", "gap", 0xff8565d92c23964eULL},
    {"OoO", "2d_convolution", 0xc30bbcaec44ae2dcULL},
    {"OoO", "inner_product", 0x07601705f1520f69ULL},
    {"OoO", "fft1d", 0xf4ea05e004ca33daULL},
    {"InO", "mcf", 0x003f68a317d93e64ULL},
    {"InO", "gcc", 0x2a4186305dd683ceULL},
    {"InO", "fft1d", 0x427183419e2e2015ULL},
    {"InO", "inner_product", 0xb552153280923fadULL},
};

TEST(CorePins, GoldenPinsCoverEveryOoOWorkload) {
  std::vector<std::string> pinned;
  for (const GoldenPin& p : kGoldenPins) {
    if (std::string(p.core) == "OoO") pinned.emplace_back(p.bench);
  }
  for (const std::string& b : workloads::benchmarks_for_core("OoO")) {
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), b), pinned.end())
        << "no golden pin for OoO workload " << b;
  }
}

TEST(CorePins, GoldenStateHashChains) {
  for (const GoldenPin& p : kGoldenPins) {
    const std::uint64_t got = golden_chain(p.core, p.bench);
    EXPECT_EQ(got, p.chain) << p.core << "/" << p.bench << ": observed 0x"
                            << std::hex << got;
  }
}

enum class Config { kBase, kEdsIr, kEdsRob, kMonitorRob };

struct CampaignPin {
  Config config;
  const char* label;
  std::uint64_t digest;
};

constexpr CampaignPin kCampaignPins[] = {
    {Config::kBase, "base", 0x6154822031e9b50aULL},
    {Config::kEdsIr, "EDS+IR", 0xc721af316b87220aULL},
    {Config::kEdsRob, "EDS+RoB", 0xd669c8d4d61e8beaULL},
    {Config::kMonitorRob, "monitor+RoB", 0x0ee6224099026eeaULL},
};

std::uint64_t outcome_digest(const inject::CampaignResult& r) {
  std::uint64_t h = util::fnv1a64(nullptr, 0);
  h = fnv(h, r.ff_count);
  h = fnv(h, r.nominal_cycles);
  h = fnv(h, r.nominal_instrs);
  for (const inject::OutcomeCounts& c : r.per_ff) {
    for (const std::uint32_t v :
         {c.vanished, c.omm, c.ut, c.hang, c.ed, c.recovered}) {
      h = fnv(h, v);
    }
  }
  return h;
}

TEST(CorePins, OoOCampaignOutcomes) {
  const isa::Program prog = bench("gcc");
  const std::uint32_t ffs = arch::make_ooo_core()->registry().ff_count();
  for (const CampaignPin& p : kCampaignPins) {
    arch::ResilienceConfig cfg;
    if (p.config == Config::kEdsIr || p.config == Config::kEdsRob) {
      cfg.prot.assign(ffs, arch::FFProt::kEds);
    }
    cfg.monitor = p.config == Config::kMonitorRob;
    cfg.recovery = p.config == Config::kEdsIr ? arch::RecoveryKind::kIr
                   : p.config == Config::kBase ? arch::RecoveryKind::kNone
                                               : arch::RecoveryKind::kRob;
    inject::CampaignSpec spec;
    spec.core_name = "OoO";
    spec.program = &prog;
    spec.injections = 0;  // one injection per flip-flop
    spec.seed = 1;
    spec.threads = 4;
    spec.use_checkpoint = 1;
    spec.cfg = p.config == Config::kBase ? nullptr : &cfg;
    const inject::CampaignResult r = inject::run_campaign(spec);
    ASSERT_EQ(r.totals.total(), ffs) << p.label;
    const std::uint64_t got = outcome_digest(r);
    EXPECT_EQ(got, p.digest) << p.label << ": observed 0x" << std::hex << got;
  }
}

}  // namespace
