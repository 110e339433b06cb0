// Layer micro-timings for the traced run.  Each probe times one layer's
// public calls on the objects the workload itself produced (its programs,
// its cache pack, its fleet results, its ledger), so sizes match the real
// traffic.  A workload runs only the probes of layers it reaches.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "arch/core.h"
#include "core/combos.h"
#include "core/selection.h"
#include "core/session.h"
#include "engine/protocol.h"
#include "explore/ledger.h"
#include "harness.h"
#include "inject/cachepack.h"
#include "util/socket.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace clear;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Reads one hello frame from a freshly connected worker.
bool read_hello(util::Socket* sock, int timeout_ms) {
  std::string buf;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    serve::Frame frame;
    const serve::FrameStatus st = serve::decode_frame(&buf, &frame);
    if (st == serve::FrameStatus::kOk) {
      serve::Hello hello;
      return frame.type == serve::FrameType::kHello &&
             serve::decode_hello(frame.payload, &hello);
    }
    if (st == serve::FrameStatus::kBad) return false;
    if (us_since(t0) > timeout_ms * 1e3) return false;
    if (!sock->readable(100)) continue;
    char chunk[4096];
    const long n = sock->recv_some(chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

std::vector<std::string> read_proc_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name, which may hold spaces.
  const std::size_t close = line.rfind(')');
  std::vector<std::string> fields;
  if (close == std::string::npos) return fields;
  std::string field;
  for (std::size_t i = close + 2; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      fields.push_back(field);
      field.clear();
    } else {
      field += line[i];
    }
  }
  return fields;
}

}  // namespace

// ---- WorkerSet --------------------------------------------------------------

void WorkerSet::start(const std::string& clear_bin, const std::string& dir,
                      int count, int threads_each) {
  fs::create_directories(dir);
  // The workers inherit this environment with their own thread budget and
  // the campaign cache off, so every shard they receive really simulates.
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CLEAR_THREADS=", 0) == 0 ||
        kv.rfind("CLEAR_CACHE_DIR=", 0) == 0) {
      continue;
    }
    env_store.push_back(kv);
  }
  env_store.push_back("CLEAR_THREADS=" + std::to_string(threads_each));
  env_store.push_back("CLEAR_CACHE_DIR=");
  std::vector<char*> envp;
  for (std::string& kv : env_store) envp.push_back(kv.data());
  envp.push_back(nullptr);

  for (int i = 0; i < count; ++i) {
    const std::string sock = dir + "/w" + std::to_string(i) + ".sock";
    const std::string log = dir + "/w" + std::to_string(i) + ".log";
    fs::remove(sock);
    std::vector<std::string> args = {clear_bin, "serve", "--socket", sock,
                                     "--heartbeat-ms", "100", "--quiet",
                                     "--name", "perfbench-w" + std::to_string(i)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, clear_bin.c_str(), &fa, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      stop();
      throw std::runtime_error("cannot spawn " + clear_bin);
    }
    pids_.push_back(pid);
    fleet::Endpoint ep;
    ep.socket_path = sock;
    endpoints_.push_back(ep);
  }
  for (const fleet::Endpoint& ep : endpoints_) {
    util::Socket conn;
    try {
      conn = util::Socket::connect_unix(ep.socket_path, 10000);
    } catch (const std::exception&) {
    }
    if (!conn.valid() || !read_hello(&conn, 10000)) {
      stop();
      throw std::runtime_error("worker on " + ep.socket_path +
                               " sent no hello");
    }
  }
}

void WorkerSet::stop() {
  for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
  for (const pid_t pid : pids_) {
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 300 && !reaped; ++i) {
      reaped = ::waitpid(pid, &status, WNOHANG) == pid;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
  }
  pids_.clear();
  endpoints_.clear();
}

double WorkerSet::cpu_s() const {
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double s = 0;
  for (const pid_t pid : pids_) {
    const std::vector<std::string> f = read_proc_fields(pid);
    // utime and stime are fields 14 and 15 of /proc/<pid>/stat; the list
    // starts at field 3.
    if (f.size() > 12) s += (std::stod(f[11]) + std::stod(f[12])) / tick;
  }
  return s;
}

double WorkerSet::peak_rss_mb() const {
  double mb = 0;
  for (const pid_t pid : pids_) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        mb += kb / 1024.0;
        break;
      }
    }
  }
  return mb;
}

// ---- fleet round ------------------------------------------------------------

std::vector<inject::ShardFile> run_fleet_round(
    const WorkerSet& workers, const std::vector<fleet::ShardWork>& shards,
    Tracer& tracer, FleetTiming* timing, fleet::FleetReport* report) {
  std::map<std::uint64_t, Clock::time_point> assigned, acked;
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const fleet::EventFn on_event = [&](const fleet::FleetEvent& e) {
    const Clock::time_point now = Clock::now();
    switch (e.kind) {
      case fleet::FleetEvent::Kind::kAssign:
        assigned[e.shard_id] = now;
        break;
      case fleet::FleetEvent::Kind::kAck:
        acked[e.shard_id] = now;
        if (assigned.count(e.shard_id)) {
          timing->assign_to_ack_ms.push_back(
              ms_between(assigned[e.shard_id], now));
        }
        break;
      case fleet::FleetEvent::Kind::kShardDone:
        if (assigned.count(e.shard_id)) {
          timing->assign_to_done_ms.push_back(
              ms_between(assigned[e.shard_id], now));
        }
        if (acked.count(e.shard_id)) {
          timing->ack_to_done_ms.push_back(ms_between(acked[e.shard_id], now));
        }
        break;
      default:
        break;
    }
  };
  fleet::FleetOptions opts;
  {
    Scope s(tracer, "fleet.run_fleet");
    *report = fleet::run_fleet(workers.endpoints(), shards, opts, on_event);
  }
  // Campaign shards return one .csr per manifest stanza, in stanza order.
  std::vector<std::vector<inject::ShardFile>> per_campaign;
  {
    Scope s(tracer, "inject.decode_shard");
    for (const fleet::ShardResult& r : report->results) {
      if (per_campaign.empty()) per_campaign.resize(r.payloads.size());
      if (r.payloads.size() != per_campaign.size()) {
        throw std::runtime_error("shard returned a different payload count");
      }
      for (std::size_t i = 0; i < r.payloads.size(); ++i) {
        inject::ShardFile f;
        const inject::WireStatus st = inject::decode_shard(r.payloads[i], &f);
        if (st != inject::WireStatus::kOk) {
          throw std::runtime_error(std::string("shard payload: ") +
                                   inject::wire_status_name(st));
        }
        per_campaign[i].push_back(std::move(f));
      }
    }
  }
  std::vector<inject::ShardFile> merged;
  Scope s(tracer, "inject.merge_shard_files");
  for (const auto& files : per_campaign) {
    merged.push_back(inject::merge_shard_files(files));
  }
  return merged;
}

void fleet_layer_metrics(const FleetTiming& timing,
                         const obs::Snapshot& worker_metrics,
                         std::size_t shards_served, std::size_t redispatched,
                         int threads_each, Metrics* m) {
  const obs::Snapshot none;
  const HistDelta classify =
      hist_delta(none, worker_metrics, "campaign.sample.classify");
  const HistDelta golden =
      hist_delta(none, worker_metrics, "campaign.golden.record");
  // Worker time spent simulating per shard, spread over its threads.
  const double work_ms =
      shards_served ? static_cast<double>(classify.sum + golden.sum) * 1e-6 /
                          static_cast<double>(shards_served) / threads_each
                    : 0.0;
  m->add("fleet.assign_to_ack_ms", median(timing.assign_to_ack_ms), "ms");
  m->add("fleet.ack_to_done.p50_ms", quantile(timing.ack_to_done_ms, 0.5),
         "ms");
  m->add("fleet.ack_to_done.p90_ms", quantile(timing.ack_to_done_ms, 0.9),
         "ms");
  m->add("fleet.shard_overhead_ms", mean(timing.ack_to_done_ms) - work_ms,
         "ms");
  m->add("fleet.redispatched", static_cast<double>(redispatched), "count");
  m->add("shard_p50_ms", quantile(timing.assign_to_done_ms, 0.5), "ms");
  m->add("shard_p90_ms", quantile(timing.assign_to_done_ms, 0.9), "ms");
  m->add("shard_latency.samples",
         static_cast<double>(timing.assign_to_done_ms.size()), "count");
}

// ---- arch -------------------------------------------------------------------

void probe_arch(const ProbeInput& in, Tracer& tracer, Metrics* m) {
  Scope span(tracer, "arch.probe");
  const std::unique_ptr<arch::Core> core = arch::make_core(in.core);
  // Golden runs: the simulated counts are exact; the host rate repeats the
  // runs so the timed section is long enough to read.
  constexpr int kReps = 20;
  std::uint64_t cycles = 0, instrs = 0;
  double host_s = 0;
  {
    Scope s(tracer, "arch.Core.run");
    for (int rep = 0; rep < kReps; ++rep) {
      for (const isa::Program& p : in.programs) {
        const Clock::time_point t0 = Clock::now();
        const arch::CoreRunResult r = core->run_clean(p);
        host_s += seconds_since(t0);
        if (rep == 0) {
          cycles += r.cycles;
          instrs += r.instrs;
        }
      }
    }
  }
  m->add("arch.golden.cycles_per_s",
         host_s > 0 ? static_cast<double>(cycles) * kReps / host_s : 0.0,
         "1/s");
  m->add("arch.golden.sim_cycles", static_cast<double>(cycles), "count");
  m->add("arch.golden.sim_ipc",
         cycles ? static_cast<double>(instrs) / static_cast<double>(cycles)
                : 0.0,
         "ratio");

  // A recorded golden trajectory of the first program: 64 snapshots, each
  // restored and compared back.
  const isa::Program& prog = in.programs.front();
  const std::uint64_t nominal = core->run_clean(prog).cycles;
  const std::uint64_t step = std::max<std::uint64_t>(1, nominal / 64);
  std::vector<arch::CoreCheckpoint> cps;
  std::vector<double> snap_us, restore_us, match_us;
  {
    Scope s(tracer, "arch.Core.snapshot");
    core->begin(prog, nullptr, nullptr);
    do {
      cps.emplace_back();
      const Clock::time_point t0 = Clock::now();
      core->snapshot(&cps.back());
      snap_us.push_back(us_since(t0));
    } while (core->step_to(core->cycle() + step, nominal * 2 + 1024));
  }
  bool all_match = true;
  {
    Scope s(tracer, "arch.Core.restore");
    for (const arch::CoreCheckpoint& cp : cps) {
      Clock::time_point t0 = Clock::now();
      core->restore(cp, nullptr);
      restore_us.push_back(us_since(t0));
      t0 = Clock::now();
      all_match &= core->state_matches(cp);
      match_us.push_back(us_since(t0));
    }
  }
  if (!all_match) {
    throw std::runtime_error("restored state does not match its snapshot");
  }
  m->add("arch.snapshot.us", median(snap_us), "us");
  m->add("arch.restore.us", median(restore_us), "us");
  m->add("arch.state_matches.us", median(match_us), "us");
}

// ---- cache pack -------------------------------------------------------------

void probe_cache(const ProbeInput& in, Tracer& tracer, Metrics* m) {
  Scope span(tracer, "inject.cache.probe");
  // The advisory index names every fingerprint the workload put or got.
  std::set<std::uint64_t> fps;
  {
    std::ifstream idx(in.cache_dir + "/" + inject::CachePack::kIndexName);
    std::string hex, clock;
    while (idx >> hex >> clock) fps.insert(std::stoull(hex, nullptr, 16));
  }
  inject::CachePack& src = inject::CachePack::instance(in.cache_dir);
  std::vector<std::pair<std::uint64_t, std::string>> payloads;
  std::vector<double> get_us, put_us;
  {
    Scope s(tracer, "inject.CachePack.get");
    for (const std::uint64_t fp : fps) {
      std::string payload;
      const Clock::time_point t0 = Clock::now();
      const bool hit = src.get(fp, &payload);
      get_us.push_back(us_since(t0));
      if (hit) payloads.emplace_back(fp, std::move(payload));
    }
  }
  const std::string dir = in.work_dir + "/cache_put";
  fs::remove_all(dir);
  {
    inject::CachePack dst(dir);
    Scope s(tracer, "inject.CachePack.put");
    for (const auto& [fp, payload] : payloads) {
      const Clock::time_point t0 = Clock::now();
      dst.put(fp, "perfbench/probe", payload);
      put_us.push_back(us_since(t0));
    }
  }
  fs::remove_all(dir);
  if (payloads.empty()) {
    throw std::runtime_error("cache probe found no records in " +
                             in.cache_dir);
  }
  m->add("cache.get.us", median(get_us), "us");
  m->add("cache.put.us", median(put_us), "us");
}

// ---- wire and frame codecs --------------------------------------------------

void probe_wire_and_frames(const ProbeInput& in, Tracer& tracer, Metrics* m) {
  Scope span(tracer, "wire.probe");
  const std::vector<inject::ShardFile>& files = in.shard_files;
  constexpr int kReps = 20;
  std::vector<double> enc_us, dec_us, fenc_us, fdec_us;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const inject::ShardFile& f : files) {
      Clock::time_point t0 = Clock::now();
      const std::string bytes = inject::encode_shard(f);
      enc_us.push_back(us_since(t0));
      inject::ShardFile back;
      t0 = Clock::now();
      const inject::WireStatus st = inject::decode_shard(bytes, &back);
      dec_us.push_back(us_since(t0));
      if (st != inject::WireStatus::kOk ||
          result_hash(back.result) != result_hash(f.result)) {
        throw std::runtime_error("wire round trip changed a result");
      }
      // The frame that carries this result from a worker to run_fleet.
      const std::string payload = serve::encode_result(0, bytes);
      t0 = Clock::now();
      std::string frame_bytes =
          serve::encode_frame(serve::FrameType::kResult, payload);
      fenc_us.push_back(us_since(t0));
      serve::Frame frame;
      t0 = Clock::now();
      const serve::FrameStatus fst = serve::decode_frame(&frame_bytes, &frame);
      fdec_us.push_back(us_since(t0));
      if (fst != serve::FrameStatus::kOk || frame.payload != payload) {
        throw std::runtime_error("frame round trip changed a payload");
      }
    }
  }
  m->add("wire.encode_shard.us", median(enc_us), "us");
  m->add("wire.decode_shard.us", median(dec_us), "us");
  m->add("protocol.encode_frame.us", median(fenc_us), "us");
  m->add("protocol.decode_frame.us", median(fdec_us), "us");
}

// ---- core and explore -------------------------------------------------------

void probe_core_explore(const ProbeInput& in, Tracer& tracer, Metrics* m) {
  Scope span(tracer, "core.probe");
  constexpr int kReps = 20;
  std::vector<double> enc_ms, dec_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::string bytes = explore::encode_ledger(*in.ledger);
    enc_ms.push_back(us_since(t0) * 1e-3);
    explore::Ledger back;
    t0 = Clock::now();
    const explore::LedgerStatus st = explore::decode_ledger(bytes, &back);
    dec_ms.push_back(us_since(t0) * 1e-3);
    if (st != explore::LedgerStatus::kOk ||
        back.records.size() != in.ledger->records.size()) {
      throw std::runtime_error("ledger round trip lost records");
    }
  }
  m->add("ledger.encode.ms", median(enc_ms), "ms");
  m->add("ledger.decode.ms", median(dec_ms), "ms");

  // Warm Session prefetch (every profile is a hit in the exploration's
  // pack) and per-combo evaluation over the combos every suite supports
  // (no ABFT layer).
  ::setenv("CLEAR_CACHE_DIR", in.cache_dir.c_str(), 1);
  std::vector<core::Combo> combos;
  for (const core::Combo& c : core::enumerate_combos(in.core)) {
    if (c.abft == workloads::AbftKind::kNone) combos.push_back(c);
  }
  std::vector<core::Variant> variants{core::Variant::base()};
  for (const core::Combo& c : combos) {
    const std::vector<core::Variant> v = core::combo_layer_variants(c);
    variants.insert(variants.end(), v.begin(), v.end());
  }
  core::Session session(in.core, 1, in.seed);
  session.set_benchmarks(in.benches);
  Clock::time_point t0 = Clock::now();
  {
    Scope s(tracer, "core.Session.prefetch");
    session.prefetch(variants);
  }
  m->add("core.prefetch.ms", us_since(t0) * 1e-3, "ms");
  core::Selector selector(session);
  std::vector<double> eval_us;
  {
    Scope s(tracer, "core.evaluate_combo");
    for (const core::Combo& c : combos) {
      t0 = Clock::now();
      (void)core::evaluate_combo(session, selector, c, 50.0);
      eval_us.push_back(us_since(t0));
    }
  }
  m->add("core.evaluate_combo.p50_us", quantile(eval_us, 0.5), "us");
  m->add("core.evaluate_combo.p90_us", quantile(eval_us, 0.9), "us");
}

// ---- obs --------------------------------------------------------------------

void probe_obs_overhead(const ProbeInput& in, Tracer& tracer, Metrics* m) {
  Scope span(tracer, "obs.probe");
  std::vector<inject::CampaignSpec> specs;
  for (std::size_t i = 0; i < in.programs.size() && i < 4; ++i) {
    inject::CampaignSpec s;
    s.core_name = in.core;
    s.program = &in.programs[i];
    s.injections = in.core == "OoO" ? 4000 : 10000;
    s.seed = in.seed + i;
    s.threads = 4;  // key left empty: no cache, every sample simulates
    specs.push_back(s);
  }
  std::vector<double> on_us, off_us;
  for (int rep = 0; rep < 4; ++rep) {
    const bool on = rep % 2 == 0;
    obs::set_enabled(on);
    const double cpu0 = process_cpu_s();
    const std::vector<inject::CampaignResult> rs = inject::run_campaigns(specs);
    double samples = 0;
    for (const auto& r : rs) samples += static_cast<double>(r.samples_executed());
    (on ? on_us : off_us).push_back((process_cpu_s() - cpu0) / samples * 1e6);
  }
  obs::set_enabled(true);
  m->add("obs.overhead_frac", median(on_us) / median(off_us) - 1.0, "ratio");
}

}  // namespace perfbench
