// Failure tests for util::write_file_atomic, the one atomic-file writer:
// a byte walk under RLIMIT_FSIZE over every byte count of a .csr and a
// .cxl rewrite, cache-pack compaction under the same limit, `clear merge`
// run under a file-size limit, and the refusal to replace a FIFO.
//
// RLIMIT_FSIZE is process-wide, so this binary must never run another
// file writer concurrently with a limited test: every test here is
// single-threaded and each limit is lifted before its test returns.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/combos.h"
#include "explore/ledger.h"
#include "inject/cachepack.h"
#include "inject/wire.h"
#include "util/fs.h"

namespace {

using namespace clear;

const std::string kDir = "fs_atomic";
const std::string kBin = CLEAR_CLI_BIN;

class FsEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    std::filesystem::remove_all(kDir);
    std::filesystem::create_directories(kDir);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new FsEnv);

// Caps this process's file size at `bytes` with SIGXFSZ ignored, so a
// write past the cap fails with EFBIG instead of killing the test; the
// previous limit and disposition come back on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0) {
      throw std::runtime_error("getrlimit failed");
    }
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lim = saved_;
    lim.rlim_cur = bytes;
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) {
      throw std::runtime_error("setrlimit failed");
    }
  }
  ~FileSizeLimit() {
    (void)::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

std::string slurp(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(util::read_file(path, &bytes)) << path;
  return bytes;
}

bool exists(const std::string& path) {
  return std::filesystem::exists(std::filesystem::symlink_status(path));
}

// A synthetic shard large enough that the walk crosses every field.
inject::ShardFile synth_shard(std::uint64_t seed, std::uint32_t ffs) {
  inject::ShardFile s;
  s.core_name = "InO";
  s.key = "test/fs/walk";
  s.program_hash = 0xFEEDFACE00000000ULL + seed;
  s.injections = 1000;
  s.seed = seed;
  s.shard_count = 7;
  s.covered = {0, 2};
  s.result.ff_count = ffs;
  s.result.nominal_cycles = 4321;
  s.result.nominal_instrs = 2100;
  s.result.per_ff.assign(ffs, {});
  for (std::uint32_t f = 0; f < ffs; ++f) {
    auto& c = s.result.per_ff[f];
    c.vanished = 10 + f + seed;
    c.omm = f;
    c.ut = 2 * f;
    c.hang = f % 2;
    c.ed = f % 3;
    c.recovered = 7 + f;
    s.result.totals.merge(c);
  }
  return s;
}

explore::Ledger synth_ledger(std::uint32_t records) {
  explore::Ledger l;
  l.core = "InO";
  l.seed = 7;
  l.per_ff_samples = 1;
  l.benchmarks = {"mcf", "gcc"};
  l.combo_count = 417;
  l.combo_fingerprint = core::enumeration_fingerprint("InO");
  l.shard_count = 3;
  l.covered = {1};
  for (std::uint32_t i = 0; i < records; ++i) {
    explore::LedgerRecord r;
    r.combo_index = 1 + 3 * i;
    r.combo = "combo#" + std::to_string(r.combo_index);
    r.target = 50.0;
    r.energy = 0.1 + 0.01 * i;
    r.imp_sdc = 51.3 + i;
    l.records.push_back(r);
  }
  return l;
}

// For every byte count n below the new content's size: with the file size
// capped at n, `write` must fail, leave the old bytes and no tmp file, and
// `loads_only_old` must confirm the loader still returns the old content.
// `rejects_torn` checks the n-byte prefix a torn write would have left.
template <typename Write, typename LoadsOld, typename RejectsTorn>
void byte_walk(const std::string& path, const std::string& old_bytes,
               const std::string& new_bytes, Write write,
               LoadsOld loads_only_old, RejectsTorn rejects_torn) {
  ASSERT_TRUE(util::write_file_atomic(path, old_bytes));
  for (std::size_t n = 0; n < new_bytes.size(); ++n) {
    bool wrote = false;
    {
      FileSizeLimit cap(n);
      wrote = write();
    }
    ASSERT_FALSE(wrote) << "n=" << n;
    ASSERT_EQ(slurp(path), old_bytes) << "n=" << n;
    ASSERT_FALSE(exists(path + ".tmp")) << "n=" << n;
    ASSERT_TRUE(loads_only_old()) << "n=" << n;
    ASSERT_TRUE(rejects_torn(new_bytes.substr(0, n))) << "n=" << n;
  }
  {
    FileSizeLimit cap(new_bytes.size());  // exactly enough: succeeds
    ASSERT_TRUE(write());
  }
  EXPECT_EQ(slurp(path), new_bytes);
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicWrite, ReplacesAndCreatesInTheWorkingDirectory) {
  const std::string rel = "fs_atomic_cwd.txt";  // no directory component
  ASSERT_TRUE(util::write_file_atomic(rel, "one"));
  ASSERT_TRUE(util::write_file_atomic(rel, std::string("two\0x", 5)));
  EXPECT_EQ(slurp(rel), std::string("two\0x", 5));
  EXPECT_FALSE(exists(rel + ".tmp"));
  std::filesystem::remove(rel);
}

TEST(AtomicWrite, AbandonedFillKeepsOldBytesAndRemovesTmp) {
  const std::string path = kDir + "/abandon.txt";
  ASSERT_TRUE(util::write_file_atomic(path, "old"));
  std::string error;
  const auto partial_then_abandon = [](int fd) {
    return util::write_all(fd, "new", 3) && false;
  };
  EXPECT_FALSE(util::write_file_atomic(path, partial_then_abandon, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_EQ(slurp(path), "old");
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicWrite, MissingDirectoryFailsWithThePathInTheError) {
  const std::string path = kDir + "/no/such/dir/x.csr";
  std::string error;
  EXPECT_FALSE(util::write_file_atomic(path, "x", &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(AtomicWrite, ByteWalkOverShardFileNeverTearsTheOldCsr) {
  const std::string path = kDir + "/walk.csr";
  const inject::ShardFile old_shard = synth_shard(1, 24);
  const inject::ShardFile new_shard = synth_shard(2, 40);
  const std::string old_bytes = inject::encode_shard(old_shard);
  const std::string new_bytes = inject::encode_shard(new_shard);
  byte_walk(
      path, old_bytes, new_bytes,
      [&] {
        try {
          inject::write_shard_file(path, new_shard);
          return true;
        } catch (const std::runtime_error&) {
          return false;
        }
      },
      [&] {
        inject::ShardFile back;
        return inject::load_shard_file(path, &back) ==
                   inject::WireStatus::kOk &&
               inject::encode_shard(back) == old_bytes;
      },
      [](const std::string& torn) {
        inject::ShardFile back;
        return inject::decode_shard(torn, &back) != inject::WireStatus::kOk;
      });
}

TEST(AtomicWrite, ByteWalkOverLedgerFileNeverTearsTheOldCxl) {
  const std::string path = kDir + "/walk.cxl";
  const explore::Ledger old_ledger = synth_ledger(5);
  const explore::Ledger new_ledger = synth_ledger(12);
  const std::string old_bytes = explore::encode_ledger(old_ledger);
  const std::string new_bytes = explore::encode_ledger(new_ledger);
  byte_walk(
      path, old_bytes, new_bytes,
      [&] {
        try {
          explore::write_ledger_file(path, new_ledger);
          return true;
        } catch (const std::runtime_error&) {
          return false;
        }
      },
      [&] {
        explore::Ledger back;
        return explore::load_ledger_file(path, &back) ==
                   explore::LedgerStatus::kOk &&
               explore::encode_ledger(back) == old_bytes;
      },
      [&](const std::string& torn) {
        // A torn .cxl may load only as a clean prefix of whole records
        // (the ledger's documented crash tolerance), never a partial one.
        explore::Ledger back;
        if (explore::decode_ledger(torn, &back) != explore::LedgerStatus::kOk) {
          return true;
        }
        if (back.records.size() >= new_ledger.records.size()) return false;
        for (std::size_t i = 0; i < back.records.size(); ++i) {
          if (explore::encode_record(back.records[i]) !=
              explore::encode_record(new_ledger.records[i])) {
            return false;
          }
        }
        return true;
      });
}

TEST(AtomicWrite, CompactionUnderAFileSizeLimitKeepsThePackServing) {
  const std::string dir = kDir + "/pack";
  std::filesystem::remove_all(dir);
  std::string pack_bytes;
  {
    inject::CachePack pack(dir);
    for (std::uint64_t fp = 1; fp <= 4; ++fp) {
      pack.put(fp, "key" + std::to_string(fp), std::string(300, 'a' + fp));
    }
    pack.put(2, "key2", std::string(300, 'z'));  // superseded bytes to reclaim
    pack_bytes = slurp(dir + "/" + inject::CachePack::kPackName);
    {
      FileSizeLimit cap(pack_bytes.size() / 2);
      pack.compact();
    }
    EXPECT_EQ(slurp(dir + "/" + inject::CachePack::kPackName), pack_bytes);
    EXPECT_FALSE(exists(dir + "/" + inject::CachePack::kPackName + ".tmp"));
    std::string got;
    ASSERT_TRUE(pack.get(2, &got));
    EXPECT_EQ(got, std::string(300, 'z'));
    pack.compact();  // no limit: now it reclaims the superseded record
    EXPECT_LT(std::filesystem::file_size(dir + "/" +
                                         inject::CachePack::kPackName),
              pack_bytes.size());
  }
  inject::CachePack reopened(dir);
  for (std::uint64_t fp = 1; fp <= 4; ++fp) {
    std::string got;
    ASSERT_TRUE(reopened.get(fp, &got)) << fp;
    EXPECT_EQ(got, std::string(300, fp == 2 ? 'z' : 'a' + fp));
  }
}

TEST(AtomicWrite, RefusesToReplaceAFifo) {
  const std::string fifo = kDir + "/sink";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  std::string error;
  EXPECT_FALSE(util::write_file_atomic(fifo, "bytes", &error));
  EXPECT_NE(error.find(fifo), std::string::npos) << error;
  struct stat st {};
  ASSERT_EQ(::lstat(fifo.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  EXPECT_FALSE(exists(fifo + ".tmp"));
}

// Runs `clear <args...>` in a child whose file size is capped at `limit`
// bytes (0 = no cap) with SIGXFSZ ignored, so an oversized write surfaces
// as an error the CLI must turn into its exit code.  Returns the exit
// status, or -1 when the child died on a signal.
int run_clear_capped(const std::vector<std::string>& args, rlim_t limit) {
  std::vector<char*> argv{const_cast<char*>(kBin.c_str())};
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    if (limit != 0) {
      rlimit lim{};
      ::getrlimit(RLIMIT_FSIZE, &lim);
      lim.rlim_cur = limit;
      if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(126);
    }
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// `clear merge --allow-partial --out <out> <inputs...>` under `limit`.
int merge_capped(const std::string& out, std::vector<std::string> inputs,
                 rlim_t limit) {
  inputs.insert(inputs.begin(), {"merge", "--allow-partial", "--out", out});
  return run_clear_capped(inputs, limit);
}

TEST(AtomicWriteCli, MergeUnderAFileSizeLimitFailsAndKeepsTheOldCsr) {
  const std::string a = kDir + "/merge_a.csr";
  const std::string b = kDir + "/merge_b.csr";
  const std::string out = kDir + "/merged.csr";
  inject::ShardFile sa = synth_shard(3, 40);
  inject::ShardFile sb = sa;
  sb.covered = {1, 5};
  inject::write_shard_file(a, sa);
  inject::write_shard_file(b, sb);
  const std::string merged =
      inject::encode_shard(inject::merge_shard_files({sa, sb}));
  const std::string previous = inject::encode_shard(synth_shard(9, 8));
  ASSERT_TRUE(util::write_file_atomic(out, previous));

  EXPECT_NE(merge_capped(out, {a, b}, merged.size() / 2), 0);
  EXPECT_EQ(slurp(out), previous);
  EXPECT_FALSE(exists(out + ".tmp"));

  // Positive control: uncapped, the same merge succeeds.
  EXPECT_EQ(merge_capped(out, {a, b}, 0), 0);
  EXPECT_EQ(slurp(out), merged);
}

TEST(AtomicWriteCli, MergeRefusesAFifoDestination) {
  const std::string a = kDir + "/fifo_a.csr";
  const std::string fifo = kDir + "/merge_sink";
  inject::write_shard_file(a, synth_shard(4, 8));
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  EXPECT_NE(merge_capped(fifo, {a}, 0), 0);
  // Positive control: the same merge into a regular file succeeds.
  EXPECT_EQ(merge_capped(kDir + "/fifo_ok.csr", {a}, 0), 0);
  struct stat st {};
  ASSERT_EQ(::lstat(fifo.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
}

}  // namespace
