// Declarations shared by the benchmark harness (harness.cpp) and its
// layer micro-timings (probes.cpp).
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "isa/program.h"
#include "trace.h"

namespace perfbench {

// Ordered name -> (value, unit) list; printed once as human-readable lines
// and once inside the final JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void print_lines() const;
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- small shared helpers -------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
// Lower-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
// Process user + system CPU seconds (all threads).
[[nodiscard]] double process_cpu_s();
// FNV-1a over a campaign's identity-free outcome: ff_count, nominal run
// and every per-FF outcome counter.
[[nodiscard]] std::uint64_t result_hash(const clear::inject::CampaignResult& r);
[[nodiscard]] std::uint64_t fnv_bytes(const std::string& bytes,
                                      std::uint64_t seed);

// ---- `clear serve` worker processes -------------------------------------

// A set of `clear serve` daemons on UNIX sockets, each with its own
// worker-thread budget and the campaign cache disabled (every shard
// simulates).  stop() terminates and reaps them; the destructor calls it.
class WorkerSet {
 public:
  WorkerSet() = default;
  ~WorkerSet() { stop(); }
  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;

  // Spawns `count` daemons and waits until each has sent its hello.
  // Throws std::runtime_error when a worker does not come up.
  void start(const std::string& clear_bin, const std::string& dir,
             int count, int threads_each);
  void stop();

  [[nodiscard]] const std::vector<clear::fleet::Endpoint>& endpoints() const {
    return endpoints_;
  }
  // Summed user + system CPU seconds of the live workers (/proc).
  [[nodiscard]] double cpu_s() const;
  // Summed peak resident set (VmHWM) of the live workers, in MiB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  std::vector<pid_t> pids_;
  std::vector<clear::fleet::Endpoint> endpoints_;
};

// Per-shard timestamps of one fleet round, from FleetEvent callbacks.
struct FleetTiming {
  std::vector<double> assign_to_done_ms;
  std::vector<double> assign_to_ack_ms;
  std::vector<double> ack_to_done_ms;
};

// One fleet round: dispatches `shards` over `workers`, merges every
// campaign's shard payloads and returns the merged shard files (one per
// manifest stanza).  Fills *timing and *report.  Throws on a refused or
// failed shard, or on a payload that does not decode.
[[nodiscard]] std::vector<clear::inject::ShardFile> run_fleet_round(
    const WorkerSet& workers, const std::vector<clear::fleet::ShardWork>& shards,
    Tracer& tracer, FleetTiming* timing, clear::fleet::FleetReport* report);

// ---- layer micro-timings (probes.cpp) ------------------------------------

// Everything the probes reuse from the workload that just ran.
struct ProbeInput {
  std::string core;                      // "InO" or "OoO"
  std::vector<std::string> benches;      // the workload's benchmarks
  std::vector<clear::isa::Program> programs;  // their base programs
  std::uint64_t seed = 1;
  std::string cache_dir;                 // a pack the workload filled
  std::vector<clear::inject::ShardFile> shard_files;  // fleet results
  const clear::explore::Ledger* ledger = nullptr;     // exploration output
  std::string work_dir;                  // scratch space for the probes
};

void probe_arch(const ProbeInput& in, Tracer& tracer, Metrics* m);
void probe_cache(const ProbeInput& in, Tracer& tracer, Metrics* m);
// Shard and frame codecs on in.shard_files (the fleet's merged results).
void probe_wire_and_frames(const ProbeInput& in, Tracer& tracer, Metrics* m);
// Ledger codec on *in.ledger, then warm Session prefetch and
// evaluate_combo over in.cache_dir (the exploration's pack).
void probe_core_explore(const ProbeInput& in, Tracer& tracer, Metrics* m);
// CPU per sample of one campaign batch with obs enabled vs disabled.
void probe_obs_overhead(const ProbeInput& in, Tracer& tracer, Metrics* m);

// Fleet per-layer metrics of the fleet workload.  `worker_metrics` is the
// workers' merged heartbeat snapshot, cumulative over the `shards_served`
// shards they ran since they were spawned.
void fleet_layer_metrics(const FleetTiming& timing,
                         const clear::obs::Snapshot& worker_metrics,
                         std::size_t shards_served, std::size_t redispatched,
                         int threads_each, Metrics* m);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
