#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/executor.hpp"
#include "simbase/error.hpp"

namespace xp = tpio::xp;

namespace {

/// A scratch file path removed on destruction.
struct TempFile {
  explicit TempFile(const char* stem)
      : path(std::string(::testing::TempDir()) + stem) {
    std::remove(path.c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

std::vector<xp::SweepJob> square_jobs(int n, std::atomic<int>* executed) {
  std::vector<xp::SweepJob> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(xp::SweepJob{"job/" + std::to_string(i), [i, executed] {
                                  if (executed != nullptr) ++*executed;
                                  return static_cast<double>(i) * i;
                                }});
  }
  return jobs;
}

}  // namespace

TEST(Executor, ResolveJobs) {
  EXPECT_EQ(xp::resolve_jobs(1), 1);
  EXPECT_EQ(xp::resolve_jobs(7), 7);
  // hardware concurrency; >= 1 even where hardware_concurrency() == 0
  EXPECT_GE(xp::resolve_jobs(0), 1);
}

TEST(Executor, EffectiveWorkersClampsToGridSize) {
  // Never more workers than jobs; never fewer than one (even for an empty
  // grid or a 0-core report from the standard library).
  EXPECT_EQ(xp::effective_workers(8, 3), 3);
  EXPECT_EQ(xp::effective_workers(2, 100), 2);
  EXPECT_EQ(xp::effective_workers(4, 4), 4);
  EXPECT_EQ(xp::effective_workers(8, 0), 1);
  EXPECT_EQ(xp::effective_workers(1, 0), 1);
  EXPECT_GE(xp::effective_workers(0, 1000), 1);  // hardware default
  EXPECT_LE(xp::effective_workers(0, 2), 2);
}

TEST(Executor, ResultsInInputOrderRegardlessOfWorkers) {
  for (int workers : {1, 2, 8}) {
    xp::ExecOptions opt;
    opt.jobs = workers;
    const auto results = xp::run_jobs(square_jobs(23, nullptr), opt);
    ASSERT_EQ(results.size(), 23u) << "workers=" << workers;
    for (int i = 0; i < 23; ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(i)],
                static_cast<double>(i) * i)
          << "workers=" << workers;
    }
  }
}

TEST(Executor, CallingThreadIsOneOfTheWorkers) {
  // Two workers, two jobs that each wait until both have started: each
  // runs on a thread of its own, and one of the two is the caller, whose
  // malloc arena then serves its job instead of sitting idle. The wait
  // gives up after 10 s, so a single thread running both jobs fails the
  // test instead of hanging it.
  std::atomic<int> started{0};
  std::vector<std::thread::id> ran_on(2);
  std::vector<xp::SweepJob> jobs;
  for (int i = 0; i < 2; ++i) {
    jobs.push_back(xp::SweepJob{"job/" + std::to_string(i), [&, i] {
      ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return 0.0;
    }});
  }
  xp::ExecOptions opt;
  opt.jobs = 2;
  xp::run_jobs(jobs, opt);
  EXPECT_NE(ran_on[0], ran_on[1]);
  const std::thread::id me = std::this_thread::get_id();
  EXPECT_TRUE(ran_on[0] == me || ran_on[1] == me)
      << "no job ran on the calling thread";
}

TEST(Executor, EmptyJobListIsFine) {
  xp::ExecOptions opt;
  opt.jobs = 4;
  EXPECT_TRUE(xp::run_jobs({}, opt).empty());
}

TEST(Executor, DuplicateKeysRejected) {
  std::vector<xp::SweepJob> jobs;
  jobs.push_back(xp::SweepJob{"same", [] { return 1.0; }});
  jobs.push_back(xp::SweepJob{"same", [] { return 2.0; }});
  xp::ExecOptions opt;
  opt.jobs = 1;
  EXPECT_THROW(xp::run_jobs(jobs, opt), tpio::Error);
}

TEST(Executor, JobExceptionPropagates) {
  std::vector<xp::SweepJob> jobs = square_jobs(6, nullptr);
  jobs[3].run = []() -> double { throw std::runtime_error("boom"); };
  for (int workers : {1, 4}) {
    xp::ExecOptions opt;
    opt.jobs = workers;
    EXPECT_THROW(xp::run_jobs(jobs, opt), std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(Executor, CheckpointRoundTripPreservesAwkwardKeys) {
  TempFile f("executor_ckpt_roundtrip.json");
  xp::Checkpoint cp;
  cp.manifest = "grid|with \"quotes\" and \\slashes\\";
  cp.grid = "3:deadbeefdeadbeef";
  cp.done["plain/key"] = 1.5;
  cp.done["tab\there"] = -2.25;
  cp.done["new\nline"] = 1e-9;
  xp::checkpoint_save(f.path, cp);

  xp::Checkpoint back;
  ASSERT_TRUE(xp::checkpoint_load(f.path, back));
  EXPECT_EQ(back.manifest, cp.manifest);
  EXPECT_EQ(back.grid, cp.grid);
  EXPECT_EQ(back.done, cp.done);
}

TEST(Executor, GridSignatureReflectsCountContentAndOrder) {
  const auto jobs3 = square_jobs(3, nullptr);
  const auto jobs4 = square_jobs(4, nullptr);
  EXPECT_EQ(xp::grid_signature(jobs3), xp::grid_signature(jobs3));
  EXPECT_NE(xp::grid_signature(jobs3), xp::grid_signature(jobs4));

  auto reordered = jobs3;
  std::swap(reordered[0], reordered[2]);
  EXPECT_NE(xp::grid_signature(jobs3), xp::grid_signature(reordered));

  auto renamed = jobs3;
  renamed[1].key = "job/other";
  EXPECT_NE(xp::grid_signature(jobs3), xp::grid_signature(renamed));
}

TEST(Executor, CheckpointLoadRejectsMissingAndGarbage) {
  xp::Checkpoint cp;
  EXPECT_FALSE(xp::checkpoint_load("/nonexistent/dir/ckpt.json", cp));

  TempFile f("executor_ckpt_garbage.json");
  std::FILE* out = std::fopen(f.path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  std::fputs("this is not a checkpoint", out);
  std::fclose(out);
  EXPECT_FALSE(xp::checkpoint_load(f.path, cp));
}

TEST(Executor, ResumeSkipsCompletedJobs) {
  TempFile f("executor_ckpt_resume.json");
  xp::Checkpoint cp;
  cp.manifest = "grid-A";
  cp.grid = xp::grid_signature(square_jobs(5, nullptr));
  cp.done["job/0"] = 1000.0;  // deliberately NOT 0*0: proves it was merged
  cp.done["job/2"] = 2000.0;
  xp::checkpoint_save(f.path, cp);

  std::atomic<int> executed{0};
  xp::ExecOptions opt;
  opt.jobs = 2;
  opt.checkpoint = f.path;
  opt.manifest = "grid-A";
  const auto results = xp::run_jobs(square_jobs(5, &executed), opt);
  EXPECT_EQ(executed.load(), 3);  // jobs 1, 3, 4
  EXPECT_EQ(results[0], 1000.0);
  EXPECT_EQ(results[1], 1.0);
  EXPECT_EQ(results[2], 2000.0);
  EXPECT_EQ(results[3], 9.0);
  EXPECT_EQ(results[4], 16.0);
}

TEST(Executor, MismatchedManifestIsRefused) {
  TempFile f("executor_ckpt_mismatch.json");
  xp::Checkpoint cp;
  cp.manifest = "grid-B";  // a different sweep's leftovers
  cp.grid = xp::grid_signature(square_jobs(3, nullptr));
  cp.done["job/0"] = 1000.0;
  xp::checkpoint_save(f.path, cp);

  std::atomic<int> executed{0};
  xp::ExecOptions opt;
  opt.jobs = 1;
  opt.checkpoint = f.path;
  opt.manifest = "grid-A";
  try {
    xp::run_jobs(square_jobs(3, &executed), opt);
    FAIL() << "stale checkpoint must be refused";
  } catch (const tpio::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid-B"), std::string::npos) << what;
    EXPECT_NE(what.find("grid-A"), std::string::npos) << what;
  }
  EXPECT_EQ(executed.load(), 0);  // refused before running anything

  // The stale file is left for the user to inspect, not clobbered.
  xp::Checkpoint back;
  ASSERT_TRUE(xp::checkpoint_load(f.path, back));
  EXPECT_EQ(back.manifest, "grid-B");
  EXPECT_EQ(back.done.size(), 1u);
}

TEST(Executor, CheckpointWithoutManifestIsRefused) {
  // A checkpoint must say which sweep wrote it, or any other sweep with
  // the same job keys could splice its results in.
  TempFile f("executor_ckpt_nomanifest.json");
  std::atomic<int> executed{0};
  xp::ExecOptions opt;
  opt.jobs = 1;
  opt.checkpoint = f.path;
  try {
    xp::run_jobs(square_jobs(3, &executed), opt);
    FAIL() << "a checkpoint without a manifest must be refused";
  } catch (const tpio::Error& e) {
    EXPECT_NE(std::string(e.what()).find(f.path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(executed.load(), 0);
  xp::Checkpoint back;
  EXPECT_FALSE(xp::checkpoint_load(f.path, back));  // nothing written
}

TEST(Executor, MismatchedGridIsRefused) {
  TempFile f("executor_ckpt_gridmismatch.json");
  // Same manifest string, but the file was written against a 4-job grid —
  // e.g. the case list or mode set changed without the manifest noticing.
  xp::ExecOptions opt;
  opt.jobs = 1;
  opt.checkpoint = f.path;
  opt.manifest = "grid-A";
  xp::run_jobs(square_jobs(4, nullptr), opt);

  std::atomic<int> executed{0};
  EXPECT_THROW(xp::run_jobs(square_jobs(3, &executed), opt), tpio::Error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(Executor, UnparseableCheckpointIsOverwritten) {
  TempFile f("executor_ckpt_unparseable.json");
  std::FILE* out = std::fopen(f.path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  std::fputs("not a checkpoint at all", out);
  std::fclose(out);

  std::atomic<int> executed{0};
  xp::ExecOptions opt;
  opt.jobs = 1;
  opt.checkpoint = f.path;
  opt.manifest = "grid-A";
  const auto results = xp::run_jobs(square_jobs(3, &executed), opt);
  EXPECT_EQ(executed.load(), 3);
  EXPECT_EQ(results[2], 4.0);

  xp::Checkpoint back;
  ASSERT_TRUE(xp::checkpoint_load(f.path, back));
  EXPECT_EQ(back.manifest, "grid-A");
  EXPECT_EQ(back.done.size(), 3u);
}

TEST(Executor, CheckpointWrittenAsJobsComplete) {
  TempFile f("executor_ckpt_written.json");
  xp::ExecOptions opt;
  opt.jobs = 4;
  opt.checkpoint = f.path;
  opt.manifest = "grid-C";
  xp::run_jobs(square_jobs(7, nullptr), opt);

  xp::Checkpoint back;
  ASSERT_TRUE(xp::checkpoint_load(f.path, back));
  EXPECT_EQ(back.manifest, "grid-C");
  ASSERT_EQ(back.done.size(), 7u);
  EXPECT_EQ(back.done.at("job/6"), 36.0);

  // A rerun restores everything from the file and executes nothing.
  std::atomic<int> executed{0};
  const auto results = xp::run_jobs(square_jobs(7, &executed), opt);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(results[5], 25.0);
}

TEST(Executor, PartialResultsCheckpointedOnFailure) {
  TempFile f("executor_ckpt_partial.json");
  std::vector<xp::SweepJob> jobs = square_jobs(4, nullptr);
  jobs[1].run = []() -> double { throw std::runtime_error("boom"); };
  xp::ExecOptions opt;
  opt.jobs = 1;  // serial: job 0 completes before job 1 throws
  opt.checkpoint = f.path;
  opt.manifest = "grid-D";
  EXPECT_THROW(xp::run_jobs(jobs, opt), std::runtime_error);

  xp::Checkpoint back;
  ASSERT_TRUE(xp::checkpoint_load(f.path, back));
  EXPECT_EQ(back.manifest, "grid-D");
  EXPECT_EQ(back.done.count("job/0"), 1u);
  EXPECT_EQ(back.done.count("job/1"), 0u);
}
