// CLEAR benchmark harness.
//
// Runs one named workload through libclear's public entry points (and, for
// fleet_shards, through real `clear serve` worker processes), checks every
// result against a reference, and prints the workload's metrics: one line
// per metric, then one JSON object as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --clear-bin <path to clear> --work-dir <dir> [--pins <file>]
//             [--input-seed <n>]
//
// --seed picks the campaign seeds (sample sites); --input-seed picks the
// benchmarks' input data sets (0, the canonical one, by default).
//
// Every workload is a closed loop: one round (a run_campaigns batch, an
// exploration pass, or one fleet run) at a time, repeated until the rounds
// have taken --seconds, after an untimed warm-up round; the set-up repeats
// between rounds (run_timed).  --trace 0 reports the
// end-to-end metrics; --trace 1 splits the time between an untraced and a
// traced half (their difference is the tracing overhead) and then runs the
// layer micro-timings of probes.cpp for the layers the workload reaches.
//
// All times are host time unless a name says `sim`.  Every modelled run
// starts from reset, so modelled caches and predictors start empty.  The
// benchmark measures the simulator, not the model's accuracy against the
// paper.
#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/variants.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "plan/runplan.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace clear;

// Thread budget: four CPUs, as four campaign threads in process or two
// `clear serve` workers with two threads each.
constexpr unsigned kThreads = 4;
constexpr int kFleetWorkers = 2;
constexpr int kFleetThreadsEach = 2;
// Pinned result hashes (pins.txt) are for this seed.
constexpr std::uint64_t kPinSeed = 1;

// Two SPEC and two PERFECT kernels that run on both cores.
const std::vector<std::string> kCampaignBenches = {"mcf", "gcc",
                                                   "inner_product", "fft1d"};

// campaign_ino: adaptive, with a ceiling large enough that every campaign
// stops early (mcf executes ~42% of it at +/-0.05).
constexpr std::size_t kInoCeiling = 300000;
constexpr double kInoHalfWidth = 0.05;
// campaign_ooo: fixed budget.  Adaptive mode would not stop early at any
// size that fits a round.
constexpr std::size_t kOooInjections = 20000;
// fleet_shards: small campaigns cut into many shards, so the per-shard
// fixed cost dominates the sample work.
constexpr std::size_t kFleetInjections = 3000;
constexpr std::uint32_t kFleetShards = 128;
// Samples per campaign of the campaign workloads' set-up batch.
constexpr std::size_t kSetupInjections = 10000;

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t i) {
  return seed * 16 + i + 1;
}

struct RoundOut {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  // One hash per checked operation, compared against the warm-up round.
  std::vector<std::uint64_t> hashes;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // refused, failed or thrown operations
};

// Per-layer metrics of layers that only one workload's timed path calls.
// The other workloads report them as 0: they make no call into the layer.
using MetricNames = std::vector<std::pair<const char*, const char*>>;
const MetricNames kFleetOnly = {
    {"wire.encode_shard.us", "us"},     {"wire.decode_shard.us", "us"},
    {"protocol.encode_frame.us", "us"}, {"protocol.decode_frame.us", "us"},
    {"fleet.assign_to_ack_ms", "ms"},   {"fleet.ack_to_done.p50_ms", "ms"},
    {"fleet.ack_to_done.p90_ms", "ms"}, {"fleet.shard_overhead_ms", "ms"},
    {"fleet.redispatched", "count"},    {"shard_p50_ms", "ms"},
    {"shard_p90_ms", "ms"},             {"shard_latency.samples", "count"}};
const MetricNames kExploreOnly = {
    {"explore.combo.p50_us", "us"},       {"explore.combo.p90_us", "us"},
    {"ledger.encode.ms", "ms"},           {"ledger.decode.ms", "ms"},
    {"core.prefetch.ms", "ms"},           {"core.evaluate_combo.p50_us", "us"},
    {"core.evaluate_combo.p90_us", "us"}};
// In-process campaign batches (the obs probe) and the cache pack: the fleet
// runs its campaigns in the workers, with the cache off.
const MetricNames kCampaignOnly = {{"obs.overhead_frac", "ratio"}};
const MetricNames kCacheCalls = {{"cache.get.us", "us"},
                                 {"cache.put.us", "us"}};

void not_reached(const MetricNames& names, Metrics* m) {
  for (const auto& [name, unit] : names) m->add(name, 0.0, unit);
}

// Builds every program of `benches` once, timing each build.
std::vector<isa::Program> timed_builds(const std::vector<std::string>& benches,
                                       std::uint32_t input_seed,
                                       Tracer& tracer, Metrics* m) {
  std::vector<isa::Program> programs;
  std::vector<double> builds;
  for (const std::string& b : benches) {
    Scope s(tracer, "workloads.build_variant_program");
    const Clock::time_point t0 = Clock::now();
    programs.push_back(
        core::build_variant_program(b, core::Variant::base(), input_seed));
    builds.push_back(seconds_since(t0) * 1e3);
  }
  m->add("workloads.build_program.ms", median(builds), "ms");
  return programs;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* op_unit() const = 0;  // what ops_per_s counts
  // How often set-up runs; setup_s is the median, so one slow set-up (page
  // cache, a burst on a shared host) does not decide it.
  virtual int setup_reps() const = 0;
  // One set-up; the rounds after it run on the state it leaves.
  virtual void setup(int rep) = 0;
  virtual RoundOut round(Tracer& tracer) = 0;
  // Untimed reference checks after the timed section; returns the number
  // of checks that failed.
  virtual std::size_t verify() { return 0; }
  virtual double extra_rss_mb() const { return 0.0; }
  // Workload-specific end-to-end lines (names from the metric table).
  virtual void print_extra() const {}
  // Per-layer metrics the workload itself produces, from the traced half.
  virtual void layer_metrics(const obs::Snapshot& before,
                             const obs::Snapshot& after,
                             const std::vector<RoundOut>& traced,
                             Metrics* m) = 0;
  // Layer micro-timings on what the workload produced, for the layers its
  // timed path reaches; every other per-layer name reads 0.
  virtual void probes(const std::string& work_dir, Tracer& tracer,
                      Metrics* m) = 0;
  virtual void teardown() {}
};

// ---- inject-layer metrics from obs histogram deltas -----------------------

// `before`/`after` bracket the campaigns that ran; `use0`/`use1` bracket
// the section whose cache and engine-queue behaviour is reported (the same
// section, except on explore_warm, whose campaigns ran during set-up).
void inject_layer_metrics(const obs::Snapshot& before,
                          const obs::Snapshot& after, double wall_s,
                          double threads, const obs::Snapshot& use0,
                          const obs::Snapshot& use1, Metrics* m) {
  const HistDelta classify = hist_delta(before, after, "campaign.sample.classify");
  const HistDelta replay = hist_delta(before, after, "campaign.fork.replay");
  const HistDelta restore = hist_delta(before, after, "campaign.snapshot.restore");
  const HistDelta golden = hist_delta(before, after, "campaign.golden.record");
  const HistDelta capture = hist_delta(before, after, "campaign.snapshot.capture");
  const HistDelta queue = hist_delta(use0, use1, "engine.queue.wait");
  const double n = std::max<double>(1.0, static_cast<double>(classify.count));
  m->add("inject.sample.self_us",
         static_cast<double>(exclusive_sum(classify, replay)) / n * 1e-3, "us");
  m->add("inject.replay.self_us",
         static_cast<double>(exclusive_sum(replay, restore)) /
             std::max<double>(1.0, static_cast<double>(replay.count)) * 1e-3,
         "us");
  m->add("inject.restore.us", restore.mean() * 1e-3, "us");
  m->add("inject.golden.record_ms", golden.mean() * 1e-6, "ms");
  m->add("inject.snapshot.capture_us", capture.mean() * 1e-3, "us");
  const double busy_s =
      static_cast<double>(classify.sum + golden.sum) * 1e-9;
  m->add("inject.worker_busy_frac",
         wall_s > 0 ? busy_s / (wall_s * threads) : 0.0, "ratio");
  const std::uint64_t hits = counter_delta(use0, use1, "cache.hit");
  const std::uint64_t misses = counter_delta(use0, use1, "cache.miss");
  m->add("cache.hit_ratio",
         hits + misses ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0,
         "ratio");
  m->add("engine.queue.wait_p50_us",
         queue.quantile(0.5) * 1e-3, "us");
}

double sum_wall(const std::vector<RoundOut>& rounds) {
  double s = 0;
  for (const RoundOut& r : rounds) s += r.wall_s;
  return s;
}

// ---- campaign_ino / campaign_ooo ------------------------------------------

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(std::string core, bool adaptive, std::uint64_t seed,
                   std::uint32_t input_seed, std::string work_dir)
      : core_(std::move(core)), adaptive_(adaptive), seed_(seed),
        input_seed_(input_seed), work_dir_(std::move(work_dir)) {}

  const char* op_unit() const override { return "samples"; }
  int setup_reps() const override { return 9; }

  // Program builds, then a small uncached batch of the same campaigns
  // (golden recording, worker pool and per-worker cores warm up).
  void setup(int /*rep*/) override {
    programs_.clear();
    specs_.clear();
    for (const std::string& b : kCampaignBenches) {
      programs_.push_back(
          core::build_variant_program(b, core::Variant::base(), input_seed_));
    }
    for (std::size_t i = 0; i < kCampaignBenches.size(); ++i) {
      inject::CampaignSpec s;
      s.core_name = core_;
      s.program = &programs_[i];
      s.key = "perfbench/" + core_ + "/" + kCampaignBenches[i] + "/base";
      s.seed = campaign_seed(seed_, i);
      s.threads = kThreads;
      if (adaptive_) {
        s.injections = kInoCeiling;
        s.confidence_half_width = kInoHalfWidth;
      } else {
        s.injections = kOooInjections;
      }
      specs_.push_back(s);
    }
    std::vector<inject::CampaignSpec> warm = specs_;
    for (inject::CampaignSpec& s : warm) {
      s.key.clear();
      s.injections = kSetupInjections;
      s.confidence_half_width = 0.0;
    }
    (void)inject::run_campaigns(warm);
  }

  RoundOut round(Tracer& tracer) override {
    // A fresh cache directory per round: every campaign misses, runs and
    // puts its result.
    if (!last_cache_.empty()) fs::remove_all(last_cache_);
    last_cache_ = work_dir_ + "/cache_" + std::to_string(round_no_++);
    ::setenv("CLEAR_CACHE_DIR", last_cache_.c_str(), 1);
    RoundOut out;
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    try {
      Scope s(tracer, "inject.run_campaigns");
      last_results_ = inject::run_campaigns(specs_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run_campaigns threw: %s\n", e.what());
      out.attempted = out.failed = specs_.size();
      return out;
    }
    out.wall_s = seconds_since(t0);
    out.cpu_s = process_cpu_s() - cpu0;
    budget_ = executed_ = 0;
    for (std::size_t i = 0; i < last_results_.size(); ++i) {
      out.ops += last_results_[i].samples_executed();
      out.hashes.push_back(result_hash(last_results_[i]));
      executed_ += last_results_[i].samples_executed();
      budget_ += specs_[i].injections;
    }
    out.attempted = specs_.size();
    return out;
  }

  void print_extra() const override {
    std::printf("campaign   %s %s, %zu campaigns per round, executed %llu of "
                "%llu budgeted samples per round\n",
                core_.c_str(), adaptive_ ? "adaptive" : "fixed-budget",
                specs_.size(), static_cast<unsigned long long>(executed_),
                static_cast<unsigned long long>(budget_));
  }

  void layer_metrics(const obs::Snapshot& before, const obs::Snapshot& after,
                     const std::vector<RoundOut>& traced,
                     Metrics* m) override {
    inject_layer_metrics(before, after, sum_wall(traced), kThreads, before,
                         after, m);
    m->add("inject.adaptive.executed_frac",
           budget_ ? static_cast<double>(executed_) /
                         static_cast<double>(budget_)
                   : 0.0,
           "ratio");
  }

  void probes(const std::string& work_dir, Tracer& tracer,
              Metrics* m) override {
    ProbeInput in;
    in.core = core_;
    in.benches = kCampaignBenches;
    in.programs = timed_builds(in.benches, input_seed_, tracer, m);
    in.seed = seed_;
    in.cache_dir = last_cache_;
    in.work_dir = work_dir;
    probe_arch(in, tracer, m);
    probe_cache(in, tracer, m);
    probe_obs_overhead(in, tracer, m);
    not_reached(kFleetOnly, m);
    not_reached(kExploreOnly, m);
  }

 private:
  std::string core_;
  bool adaptive_;
  std::uint64_t seed_;
  std::uint32_t input_seed_;
  std::string work_dir_;
  std::vector<isa::Program> programs_;
  std::vector<inject::CampaignSpec> specs_;
  std::vector<inject::CampaignResult> last_results_;
  std::string last_cache_;
  int round_no_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t budget_ = 0;
};

// ---- explore_warm ---------------------------------------------------------

std::uint64_t ledger_hash(const explore::Ledger& ledger) {
  std::uint64_t h = fnv_bytes("CXL records", 1469598103934665603ULL);
  for (const explore::LedgerRecord& r : ledger.records) {
    h = fnv_bytes(explore::encode_record(r), h);
  }
  return h;
}

class ExploreWorkload : public Workload {
 public:
  // The exploration API has no input-seed knob: it always profiles the
  // canonical input data sets.
  ExploreWorkload(std::uint64_t seed, std::string work_dir)
      : work_dir_(std::move(work_dir)) {
    spec_.core = "InO";
    spec_.seed = seed;
    spec_.per_ff_samples = 1;
    spec_.prune = false;
  }

  const char* op_unit() const override { return "combos"; }
  // A set-up is a 2-s cold fill: three keep the run short.
  int setup_reps() const override { return 3; }

  // Fills a fresh cache pack with every profiling campaign of the
  // combination space (one cold exploration pass).
  void setup(int rep) override {
    cache_dir_ = work_dir_ + "/explore_cache_" + std::to_string(rep);
    ::setenv("CLEAR_CACHE_DIR", cache_dir_.c_str(), 1);
    fill_before_ = obs::snapshot();
    const Clock::time_point t0 = Clock::now();
    const explore::Ledger cold = explore::run_exploration(spec_, "");
    fill_wall_ = seconds_since(t0);
    fill_after_ = obs::snapshot();
    cold_hash_ = ledger_hash(cold);
  }

  RoundOut round(Tracer& tracer) override {
    const std::string path =
        work_dir_ + "/ledger_" + std::to_string(pass_++) + ".cxl";
    RoundOut out;
    out.attempted = 1;
    explore::ProgressFn progress;
    if (tracer.enabled()) {
      progress = [this](const explore::Progress&) {
        const Clock::time_point now = Clock::now();
        combo_gaps_us_.push_back(
            std::chrono::duration<double, std::micro>(now - last_progress_)
                .count());
        last_progress_ = now;
      };
    }
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    last_progress_ = t0;
    try {
      Scope s(tracer, "explore.run_exploration");
      last_ledger_ = explore::run_exploration(spec_, path, progress);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run_exploration threw: %s\n",
                   e.what());
      out.failed = 1;
      return out;
    }
    out.wall_s = seconds_since(t0);
    out.cpu_s = process_cpu_s() - cpu0;
    out.ops = last_ledger_.records.size();
    out.hashes.push_back(ledger_hash(last_ledger_));
    fs::remove(path);
    return out;
  }

  // Warm passes must write exactly the records the cold pass computed.
  std::size_t verify() override {
    return ledger_hash(last_ledger_) == cold_hash_ ? 0 : 1;
  }

  void layer_metrics(const obs::Snapshot& before, const obs::Snapshot& after,
                     const std::vector<RoundOut>& /*traced*/,
                     Metrics* m) override {
    // The passes simulate nothing; the inject layer's work happened when
    // set-up filled the pack, so its timings come from that fill, while
    // the cache hit ratio and queue wait are the warm passes' own.
    inject_layer_metrics(fill_before_, fill_after_, fill_wall_, kThreads,
                         before, after, m);
    // Fixed-budget profiling: every campaign executes its whole budget.
    m->add("inject.adaptive.executed_frac", 1.0, "ratio");
    m->add("explore.combo.p50_us", quantile(combo_gaps_us_, 0.5), "us");
    m->add("explore.combo.p90_us", quantile(combo_gaps_us_, 0.9), "us");
  }

  void probes(const std::string& work_dir, Tracer& tracer,
              Metrics* m) override {
    ProbeInput in;
    in.core = spec_.core;
    in.benches = workloads::benchmarks_for_core(spec_.core);
    in.programs = timed_builds(in.benches, 0, tracer, m);
    in.seed = spec_.seed;
    in.cache_dir = cache_dir_;
    in.ledger = &last_ledger_;
    in.work_dir = work_dir;
    probe_arch(in, tracer, m);
    probe_cache(in, tracer, m);
    probe_core_explore(in, tracer, m);
    not_reached(kFleetOnly, m);
    not_reached(kCampaignOnly, m);
  }

 private:
  explore::ExploreSpec spec_;
  std::string work_dir_;
  std::string cache_dir_;
  int pass_ = 0;
  std::uint64_t cold_hash_ = 0;
  explore::Ledger last_ledger_;
  obs::Snapshot fill_before_, fill_after_;
  double fill_wall_ = 0.0;
  std::vector<double> combo_gaps_us_;
  Clock::time_point last_progress_;
};

// ---- fleet_shards ---------------------------------------------------------

std::string fleet_manifest(const std::string& core,
                           const std::vector<std::string>& benches,
                           std::size_t injections, std::uint64_t seed,
                           std::uint32_t input_seed) {
  std::string text;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    if (i) text += "---\n";
    text += "--core " + core + " --bench " + benches[i] + " --injections " +
            std::to_string(injections) + " --seed " +
            std::to_string(campaign_seed(seed, i)) + " --input-seed " +
            std::to_string(input_seed) + "\n";
  }
  return text;
}

class FleetWorkload : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::uint32_t input_seed,
                std::string work_dir, std::string bin)
      : seed_(seed), input_seed_(input_seed), work_dir_(std::move(work_dir)),
        bin_(std::move(bin)) {
    manifest_ = fleet_manifest("InO", kCampaignBenches, kFleetInjections,
                               seed_, input_seed_);
    std::string error;
    if (!fleet::build_campaign_shards(manifest_, kFleetShards, &shards_,
                                      &error)) {
      throw std::runtime_error("fleet manifest: " + error);
    }
  }

  const char* op_unit() const override { return "samples"; }

  // A set-up is ~40 ms, mostly two process spawns: many of them keep its
  // median steady.
  int setup_reps() const override { return 11; }

  // Worker spawn and hello, then one shard per worker: a worker's first
  // shard pays its engine and per-thread core start-up.
  void setup(int rep) override {
    workers_.start(bin_, work_dir_ + "/fleet_" + std::to_string(rep),
                   kFleetWorkers, kFleetThreadsEach);
    const std::vector<fleet::ShardWork> first(shards_.begin(),
                                              shards_.begin() + kFleetWorkers);
    const Clock::time_point t0 = Clock::now();
    (void)fleet::run_fleet(workers_.endpoints(), first, fleet::FleetOptions{});
    rounds_wall_ = seconds_since(t0);
    shards_served_ = first.size();
  }

  RoundOut round(Tracer& tracer) override {
    RoundOut out;
    out.attempted = shards_.size();
    const double cpu0 = process_cpu_s() + workers_.cpu_s();
    const Clock::time_point t0 = Clock::now();
    fleet::FleetReport report;
    std::vector<inject::ShardFile> merged;
    try {
      merged = run_fleet_round(workers_, shards_, tracer, &timing_, &report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fleet round failed: %s\n", e.what());
      out.failed = shards_.size();
      return out;
    }
    out.wall_s = seconds_since(t0);
    out.cpu_s = process_cpu_s() + workers_.cpu_s() - cpu0;
    redispatched_ += report.redispatched;
    shards_served_ += shards_.size();
    rounds_wall_ += out.wall_s;
    for (const inject::ShardFile& f : merged) {
      out.ops += f.result.samples_executed();
      out.hashes.push_back(fnv_bytes(inject::encode_shard(f),
                                     1469598103934665603ULL));
    }
    last_merged_ = std::move(merged);
    last_report_ = std::move(report);
    return out;
  }

  // The fleet's merged result must equal an in-process unsharded run of
  // the same manifest, campaign by campaign.
  std::size_t verify() override {
    std::vector<plan::RunPlan> plans;
    std::string error;
    if (!plan::resolve_manifest_text(manifest_, "perfbench", &plans,
                                     &error)) {
      std::fprintf(stderr, "perfbench: manifest: %s\n", error.c_str());
      return 1;
    }
    const std::string ref_cache = work_dir_ + "/fleet_ref_cache";
    ::setenv("CLEAR_CACHE_DIR", ref_cache.c_str(), 1);
    std::vector<inject::CampaignSpec> specs;
    for (plan::RunPlan& p : plans) {
      p.patch_spec_pointers();
      p.spec.threads = kThreads;
      specs.push_back(p.spec);
    }
    const std::vector<inject::CampaignResult> ref = inject::run_campaigns(specs);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (i >= last_merged_.size() ||
          result_hash(ref[i]) != result_hash(last_merged_[i].result)) {
        std::fprintf(stderr,
                     "perfbench: fleet campaign %zu differs from the "
                     "unsharded in-process run\n", i);
        ++failed;
      }
    }
    return failed;
  }

  double extra_rss_mb() const override { return workers_.peak_rss_mb(); }

  void print_extra() const override {
    std::printf("fleet      %d workers x %d threads, %u shards per round, "
                "%zu shard latencies\n", kFleetWorkers, kFleetThreadsEach,
                kFleetShards, timing_.assign_to_done_ms.size());
    std::printf("shard_p50_ms %.4f ms\nshard_p90_ms %.4f ms\n",
                quantile(timing_.assign_to_done_ms, 0.5),
                quantile(timing_.assign_to_done_ms, 0.9));
  }

  void layer_metrics(const obs::Snapshot& /*before*/,
                     const obs::Snapshot& /*after*/,
                     const std::vector<RoundOut>& /*traced*/,
                     Metrics* m) override {
    // The campaigns run inside the workers: their latest heartbeat
    // snapshots (cumulative since spawn) carry the inject and engine
    // histograms.
    obs::Snapshot workers;
    for (const fleet::WorkerStatus& w : last_report_.workers) {
      if (w.has_metrics) obs::merge(&workers, w.metrics);
    }
    inject_layer_metrics(obs::Snapshot{}, workers, rounds_wall_,
                         kFleetWorkers * kFleetThreadsEach, obs::Snapshot{},
                         workers, m);
    std::uint64_t executed = 0, budget = 0;
    for (const inject::ShardFile& f : last_merged_) {
      executed += f.result.samples_executed();
      budget += f.injections;
    }
    m->add("inject.adaptive.executed_frac",
           budget ? static_cast<double>(executed) /
                        static_cast<double>(budget)
                  : 0.0,
           "ratio");
    fleet_layer_metrics(timing_, workers, shards_served_, redispatched_,
                        kFleetThreadsEach, m);
  }

  void probes(const std::string& work_dir, Tracer& tracer,
              Metrics* m) override {
    ProbeInput in;
    in.core = "InO";
    in.benches = kCampaignBenches;
    in.programs = timed_builds(in.benches, input_seed_, tracer, m);
    in.seed = seed_;
    in.shard_files = last_merged_;
    in.work_dir = work_dir;
    probe_arch(in, tracer, m);
    probe_wire_and_frames(in, tracer, m);
    not_reached(kCacheCalls, m);
    not_reached(kCampaignOnly, m);
    not_reached(kExploreOnly, m);
  }

  void teardown() override { workers_.stop(); }

 private:
  std::uint64_t seed_;
  std::uint32_t input_seed_;
  std::string work_dir_;
  std::string bin_;
  std::string manifest_;
  std::vector<fleet::ShardWork> shards_;
  WorkerSet workers_;
  FleetTiming timing_;
  fleet::FleetReport last_report_;
  std::vector<inject::ShardFile> last_merged_;
  std::size_t redispatched_ = 0;
  std::size_t shards_served_ = 0;
  double rounds_wall_ = 0.0;  // every round these workers served
};

// ---- main loop ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kPinSeed;
  std::uint32_t input_seed = 0;  // benchmark input data set
  double seconds = 10.0;
  bool trace = false;
  std::string clear_bin;
  std::string work_dir;
  std::string pins;
};

bool parse_options(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") o->workload = v;
      else if (k == "--seed") o->seed = std::stoull(v);
      else if (k == "--input-seed")
        o->input_seed = static_cast<std::uint32_t>(std::stoul(v));
      else if (k == "--seconds") o->seconds = std::stod(v);
      else if (k == "--trace") o->trace = std::stoi(v) != 0;
      else if (k == "--clear-bin") o->clear_bin = v;
      else if (k == "--work-dir") o->work_dir = v;
      else if (k == "--pins") o->pins = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->work_dir.empty() &&
         o->seconds > 0;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "campaign_ino") {
    return std::make_unique<CampaignWorkload>("InO", true, o.seed,
                                              o.input_seed, o.work_dir);
  }
  if (o.workload == "campaign_ooo") {
    return std::make_unique<CampaignWorkload>("OoO", false, o.seed,
                                              o.input_seed, o.work_dir);
  }
  if (o.workload == "explore_warm") {
    return std::make_unique<ExploreWorkload>(o.seed, o.work_dir);
  }
  if (o.workload == "fleet_shards") {
    if (o.clear_bin.empty()) return nullptr;
    return std::make_unique<FleetWorkload>(o.seed, o.input_seed, o.work_dir,
                                           o.clear_bin);
  }
  return nullptr;
}

// Pinned hash of the workload's warm-up round, or 0 when none is pinned.
std::uint64_t read_pin(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  std::string name, hex;
  while (in >> name >> hex) {
    if (name == workload) return std::stoull(hex, nullptr, 16);
  }
  return 0;
}

std::uint64_t combine_hashes(const std::vector<std::uint64_t>& hashes) {
  std::string bytes;
  for (const std::uint64_t h : hashes) {
    bytes.append(reinterpret_cast<const char*>(&h), sizeof(h));
  }
  return fnv_bytes(bytes, 1469598103934665603ULL);
}

// Repeats rounds until they have taken `seconds`.  Between rounds it
// repeats the set-up `setups` times, evenly spread, and appends each set-up
// time to *setup_s, so set-up time samples the same phases of a shared host
// as the rounds do.
std::vector<RoundOut> run_timed(Workload& wl, double seconds, Tracer& tracer,
                                std::uint32_t* run_id, int setups,
                                std::vector<double>* setup_s) {
  std::vector<RoundOut> rounds;
  double spent = 0.0;
  int done = 0;
  do {
    if (done < setups && spent >= seconds * (done + 1) / (setups + 1)) {
      wl.teardown();
      const Clock::time_point t0 = Clock::now();
      wl.setup(static_cast<int>(setup_s->size()));
      setup_s->push_back(seconds_since(t0));
      ++done;
    }
    tracer.set_run(++*run_id);
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tracer, "round");
      rounds.push_back(wl.round(tracer));
    }
    spent += seconds_since(t0);
  } while (spent < seconds || rounds.size() < 2);
  return rounds;
}

double peak_rss_self_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int run(const Options& o) {
  ::setenv("CLEAR_THREADS", std::to_string(kThreads).c_str(), 1);
  fs::create_directories(o.work_dir);
  std::unique_ptr<Workload> wl = make_workload(o);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  Tracer off(false);
  std::vector<double> setup_s;
  const Clock::time_point setup0 = Clock::now();
  wl->setup(0);
  setup_s.push_back(seconds_since(setup0));
  // Untimed warm-up round; its hashes are the reference for every timed
  // round.
  const RoundOut warm = wl->round(off);
  std::size_t attempted = warm.attempted;
  std::size_t failed = warm.failed;
  const std::uint64_t warm_hash = combine_hashes(warm.hashes);
  std::printf("workload   %s seed=%llu result_hash=%016llx\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(warm_hash));
  if (o.seed == kPinSeed && o.input_seed == 0 && !o.pins.empty()) {
    const std::uint64_t pin = read_pin(o.pins, o.workload);
    if (pin != warm_hash) {
      std::fprintf(stderr, "perfbench: result hash %016llx != pinned %016llx\n",
                   static_cast<unsigned long long>(warm_hash),
                   static_cast<unsigned long long>(pin));
      failed += warm.attempted;
    }
  }

  std::uint32_t run_id = 0;
  std::vector<RoundOut> rounds, traced;
  Tracer tracer(false);
  obs::Snapshot before, after;
  // The traced half repeats no set-up: the workload's layer metrics
  // describe the workers and packs of one set-up.
  const int setups = wl->setup_reps() - 1;
  if (!o.trace) {
    rounds = run_timed(*wl, o.seconds, off, &run_id, setups, &setup_s);
  } else {
    rounds = run_timed(*wl, o.seconds / 2, off, &run_id, setups, &setup_s);
    tracer.set_enabled(true);
    before = obs::snapshot();
    traced = run_timed(*wl, o.seconds / 2, tracer, &run_id, 0, &setup_s);
    after = obs::snapshot();
  }

  const auto tally = [&](const std::vector<RoundOut>& rs) {
    for (const RoundOut& r : rs) {
      attempted += r.attempted;
      failed += r.failed;
      if (r.failed == 0 && r.hashes != warm.hashes) {
        std::fprintf(stderr, "perfbench: round result differs from the "
                             "warm-up round\n");
        failed += r.attempted;
      }
    }
  };
  tally(rounds);
  tally(traced);
  const std::size_t verify_failed = wl->verify();
  attempted += 1;
  failed += verify_failed ? 1 : 0;

  // End-to-end metrics are medians over the untraced rounds: the host's
  // CPU time is shared with other tenants, and a median of many short
  // rounds rides out their bursts.
  double ops = 0;
  std::vector<double> walls, rates, cpu_per_op;
  for (const RoundOut& r : rounds) {
    ops += static_cast<double>(r.ops);
    walls.push_back(r.wall_s);
    if (r.ops > 0 && r.wall_s > 0) {
      rates.push_back(static_cast<double>(r.ops) / r.wall_s);
      cpu_per_op.push_back(r.cpu_s / static_cast<double>(r.ops) * 1e6);
    }
  }
  Metrics e2e;
  e2e.add("ops_per_s", median(rates), "1/s");
  e2e.add("cpu_us_per_op", median(cpu_per_op), "us");
  e2e.add("wall_s", median(walls), "s");
  e2e.add("setup_s", median(setup_s), "s");
  e2e.add("peak_rss_mb", peak_rss_self_mb() + wl->extra_rss_mb(), "MiB");
  e2e.print_lines();
  // The same numbers under the names of the per-workload metric table.
  const bool samples = std::strcmp(wl->op_unit(), "samples") == 0;
  std::printf("%s %.6g %s/s\n", samples ? "samples_per_s" : "combos_per_s",
              median(rates), wl->op_unit());
  std::printf("cpu_us_per_%s %.6g us\n", samples ? "sample" : "combo",
              median(cpu_per_op));
  std::printf("rounds     %zu timed, %.0f %s, wall per round:", rounds.size(),
              ops, wl->op_unit());
  for (const double w : walls) std::printf(" %.4f", w);
  std::printf("\nsetups     %zu, wall per set-up:", setup_s.size());
  for (const double w : setup_s) std::printf(" %.4f", w);
  std::printf("\n");
  wl->print_extra();
  std::printf("fail_frac  %.6g (%zu of %zu operations)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              failed, attempted);

  Metrics layer;
  if (o.trace) {
    std::vector<double> twalls;
    for (const RoundOut& r : traced) twalls.push_back(r.wall_s);
    layer.add("trace.overhead_s", median(twalls) - median(walls), "s");
    wl->layer_metrics(before, after, traced, &layer);
    const std::string probe_dir = o.work_dir + "/probes";
    fs::create_directories(probe_dir);
    wl->probes(probe_dir, tracer, &layer);
    std::printf("---- per-layer (traced run) ----\n");
    layer.print_lines();
    std::printf("---- span self time (s) ----\n");
    for (const auto& [name, t] : tracer.self_times()) {
      std::printf("%-40s calls=%-6llu total=%.6f self=%.6f\n", name.c_str(),
                  static_cast<unsigned long long>(t.calls), t.total_s,
                  t.self_s);
    }
    const std::string trace_path =
        (fs::path(o.work_dir).parent_path() /
         ("trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".json"))
            .string();
    if (!tracer.write_json(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
  }
  wl->teardown();
  std::printf("note       host-time simulator benchmark; model accuracy "
              "against the paper is not measured\n");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              o.trace ? layer.json().c_str() : e2e.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

// ---- shared helpers -------------------------------------------------------

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Metrics::print_lines() const {
  for (const Entry& e : entries_) {
    std::printf("%-34s %.10g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t fnv_bytes(const std::string& bytes, std::uint64_t seed) {
  return clear::util::fnv1a64(bytes.data(), bytes.size(), seed);
}

std::uint64_t result_hash(const clear::inject::CampaignResult& r) {
  std::vector<std::uint32_t> words = {
      r.ff_count, static_cast<std::uint32_t>(r.nominal_cycles),
      static_cast<std::uint32_t>(r.nominal_instrs)};
  for (const clear::inject::OutcomeCounts& c : r.per_ff) {
    words.insert(words.end(),
                 {c.vanished, c.omm, c.ut, c.hang, c.ed, c.recovered});
  }
  return clear::util::fnv1a64(words.data(), words.size() * sizeof(words[0]));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse_options(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--input-seed <n>] "
                 "[--clear-bin <clear>] [--pins <file>]\n");
    return 2;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
