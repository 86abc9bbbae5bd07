#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace tpio::xp {

/// One independent unit of sweep work: a stable key (unique within the
/// sweep; used for checkpointing and progress display) plus the closure
/// that produces its measurement. Jobs must be independent — each derives
/// its own seeds — so they can run concurrently in any order.
struct SweepJob {
  std::string key;
  /// Produces the job's scalar measurement — conventionally the series
  /// minimum in milliseconds, but any deterministic double works (the
  /// fault-resilience driver returns retry counts). Checkpoints store the
  /// value verbatim, so it must be reproducible from the job's own seeds.
  std::function<double()> run;
};

/// Execution policy of a sweep.
struct ExecOptions {
  /// Worker threads, the calling thread included. 0 = hardware
  /// concurrency; 1 = run jobs inline on the calling thread in input order
  /// (the historical serial path). Because every job derives its own
  /// seeds, any value produces bit-identical result tables — only
  /// wall-clock changes.
  int jobs = 0;
  /// Live progress to stderr: jobs done/total, ETA, and the key of the
  /// longest-running in-flight job (the current bottleneck config).
  bool progress = false;
  /// Path of a JSON checkpoint file; empty disables checkpointing. Jobs
  /// already recorded in a matching checkpoint are not re-run; their
  /// results are merged from the file. The file is rewritten atomically as
  /// jobs complete, so an interrupted sweep resumes where it stopped.
  std::string checkpoint;
  /// Identifies the sweep that writes `checkpoint`: tpio_sweep's command
  /// line less --jobs, --progress and --resume (parse_cli), so every flag
  /// that can change a cell is part of it. Required with a checkpoint.
  /// run_jobs refuses to resume from a checkpoint whose manifest — or whose
  /// recorded grid signature (job count + key fingerprint) — differs from
  /// the current run: splicing results from a different grid would corrupt
  /// the tables silently, so a stale file is an error the user must clear,
  /// not something to paper over. Unparseable files (absent, truncated,
  /// foreign format) are simply overwritten.
  std::string manifest;
};

/// Effective worker count for a requested `jobs` value (0 -> hardware).
/// Always >= 1, even on platforms where hardware_concurrency() reports 0
/// (the standard permits it when the count is not computable).
int resolve_jobs(int jobs);

/// Worker count run_jobs actually runs, the calling thread included:
/// resolve_jobs(jobs) clamped to the grid size (never more workers than
/// jobs, never fewer than 1). Exposed for tests.
int effective_workers(int jobs, std::size_t grid_jobs);

/// Run every job and return the results in input order, regardless of
/// completion order. With opt.jobs == 1 the jobs execute inline on the
/// calling thread; otherwise the calling thread drains them beside a
/// bounded std::jthread pool of effective_workers() - 1 threads.
/// A job that throws aborts the sweep (the first exception is rethrown
/// after the pool winds down) — partial results are still checkpointed.
std::vector<double> run_jobs(const std::vector<SweepJob>& jobs,
                             const ExecOptions& opt);

// ---------------------------------------------------------------------------
// Checkpoint file format (exposed for tests and external tooling)
// ---------------------------------------------------------------------------

/// In-memory image of a sweep checkpoint: the grid manifest, the grid
/// signature it was written against, and the completed jobs' results by
/// key.
struct Checkpoint {
  std::string manifest;
  std::string grid;  // grid_signature() of the jobs this file belongs to
  std::map<std::string, double> done;
};

/// Structural fingerprint of a job grid: the job count plus an FNV-1a hash
/// over the ordered job keys. Two grids with the same manifest string but
/// different cases, mode sets, or orderings get different signatures.
std::string grid_signature(const std::vector<SweepJob>& jobs);

/// Load `path`; returns false (and leaves `out` empty) when the file is
/// absent or not a checkpoint this writer produced.
bool checkpoint_load(const std::string& path, Checkpoint& out);

/// Write `cp` to `path` atomically (temp file + rename).
void checkpoint_save(const std::string& path, const Checkpoint& cp);

}  // namespace tpio::xp
