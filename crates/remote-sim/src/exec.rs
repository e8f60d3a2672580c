//! The execution model: jobs, stages, task waves, and elapsed time.
//!
//! A query compiles to a `Job` — an ordered list of [`Stage`]s, each with
//! a task count and aggregate single-core work split into I/O and CPU
//! components. Elapsed time for a stage is
//!
//! ```text
//! stage_startup
//!   + serial_prelude                          (driver-side work, e.g.
//!                                              reading + broadcasting the
//!                                              small join side)
//!   + task_waves(tasks) · task_startup        (paper §4: NumTaskWaves)
//!   + effective_work / total_cores
//! ```
//!
//! where `effective_work = max(io, cpu) + overlap · min(io, cpu)` models
//! the partial I/O↔CPU pipelining inside a task. This overlap is exactly
//! the effect the paper's analytic sub-op formulas ignore, which is why
//! the sub-op approach "slightly tends to overestimate the cost … a
//! typical trend even within RDBMSs" (§7, Fig. 13g); the simulator
//! reproduces that bias mechanically rather than by fiat.
//!
//! The builder functions translate each physical algorithm of §4 into a
//! job. All work quantities are in single-core microseconds.

use crate::{cluster::ClusterConfig, subop_cost::MicroCosts};
use catalog::remote::{AggAlgorithm, AggInfo, JoinAlgorithm, JoinInfo, SimDuration};

/// One stage of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Parallel tasks in this stage.
    pub tasks: u64,
    /// Aggregate I/O work across all tasks, in single-core µs.
    pub io_us: f64,
    /// Aggregate CPU work across all tasks, in single-core µs.
    pub cpu_us: f64,
    /// Driver-side serial work executed before the tasks launch, µs.
    pub serial_prelude_us: f64,
}

impl Stage {
    /// A stage with no serial prelude.
    pub(crate) fn parallel(tasks: u64, io_us: f64, cpu_us: f64) -> Self {
        Stage {
            tasks: tasks.max(1),
            io_us,
            cpu_us,
            serial_prelude_us: 0.0,
        }
    }

    /// Adds driver-side serial work.
    pub(crate) fn with_prelude(mut self, us: f64) -> Self {
        self.serial_prelude_us = us;
        self
    }
}

/// A compiled query: one or more stages executed back to back.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Job {
    /// The stages, in execution order.
    pub stages: Vec<Stage>,
}

/// Scheduling overheads of an engine persona.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// Fixed latency to launch one stage (job setup, scheduling), µs.
    pub stage_startup_us: f64,
    /// Latency to launch one wave of tasks, µs.
    pub task_startup_us: f64,
    /// Fraction of the smaller of (io, cpu) that does *not* overlap with
    /// the larger; 0 = perfect pipelining, 1 = fully serial.
    pub overlap_residual: f64,
}

impl Job {
    /// Total elapsed time of the job on a cluster.
    ///
    /// Work is modelled as perfectly balanced across all task slots —
    /// even a single-task stage divides its work by the full
    /// parallelism. This is a deliberate simplification (it keeps the
    /// probe-derived per-record costs size-independent); its cost is that
    /// tiny jobs run faster here than a real scheduler would allow, which
    /// widens the sub-op formulas' overestimation at the small end
    /// (their `NumTaskWaves` semantics charge whole task quanta).
    pub(crate) fn elapsed(&self, cluster: &ClusterConfig, ov: &Overheads) -> SimDuration {
        let cores = cluster.total_cores() as f64;
        let mut total = 0.0;
        for s in &self.stages {
            let waves = cluster.task_waves(s.tasks) as f64;
            let effective = s.io_us.max(s.cpu_us) + ov.overlap_residual * s.io_us.min(s.cpu_us);
            total += ov.stage_startup_us
                + s.serial_prelude_us
                + waves * ov.task_startup_us
                + effective / cores;
        }
        SimDuration::from_micros(total)
    }

    /// Total single-core work across all stages (io + cpu + preludes).
    #[cfg(test)]
    pub(crate) fn total_work_us(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.io_us + s.cpu_us + s.serial_prelude_us)
            .sum()
    }
}

/// Builds jobs for an engine persona's algorithms.
pub(crate) struct ExecModel<'a> {
    /// Micro-cost table (hidden ground truth).
    pub micro: &'a MicroCosts,
    /// Cluster layout.
    pub cluster: &'a ClusterConfig,
}

/// Joins merge records sequentially out of sorted runs / hash buckets,
/// which is markedly cheaper per record than the random-pair merging the
/// Fig. 5 probe query measures. The probe-calibrated `m` therefore
/// overestimates in-join merge work — the single largest contributor to
/// the sub-op approach's consistent overestimation in Fig. 13g.
const SEQUENTIAL_MERGE_DISCOUNT: f64 = 0.62;

impl ExecModel<'_> {
    fn blocks(&self, bytes: f64) -> u64 {
        self.cluster.blocks_for(bytes.max(0.0) as u64)
    }

    fn join_merge_total(&self, rows: f64, bytes: f64) -> f64 {
        self.micro.rec_merge.total(rows, bytes) * SEQUENTIAL_MERGE_DISCOUNT
    }

    /// In-memory sorts are O(n log n); the per-record sort micro-cost is
    /// calibrated at 64 Ki records per task, so larger runs cost a
    /// logarithmic factor more and smaller runs less. This is one of the
    /// non-linearities that defeats the linear-regression baseline on the
    /// join operator (Fig. 12d) while the NN absorbs it.
    fn sort_total(&self, rows: f64, bytes: f64, tasks: u64) -> f64 {
        let per_task_rows = (rows / tasks.max(1) as f64).max(16.0);
        let factor = per_task_rows.log2() / 16.0;
        self.micro.sort.total(rows, bytes) * factor
    }

    fn fits_hash_budget(&self, bytes: f64) -> bool {
        bytes <= self.cluster.task_hash_budget_bytes() as f64
    }

    /// Pure scan-filter-project job (map-only). `distributed` selects DFS
    /// I/O rates (Hive/Spark) vs local-disk rates (single-node RDBMS) —
    /// the same distinction the join and aggregation builders make.
    pub(crate) fn scan_job(
        &self,
        in_rows: f64,
        in_bytes: f64,
        out_rows: f64,
        out_bytes: f64,
        distributed: bool,
    ) -> Job {
        let m = self.micro;
        let tasks = self.blocks(in_rows * in_bytes);
        let io = if distributed {
            m.read_dfs.total(in_rows, in_bytes) + m.write_dfs.total(out_rows, out_bytes)
        } else {
            m.read_local.total(in_rows, in_bytes) + m.write_local.total(out_rows, out_bytes)
        };
        let cpu = m.scan.total(in_rows, in_bytes);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// A final ORDER BY pass: read the intermediate result locally, sort
    /// it, and write it back.
    pub(crate) fn sort_job(&self, rows: f64, row_bytes: f64, distributed: bool) -> Job {
        let m = self.micro;
        let tasks = self.blocks(rows * row_bytes);
        let write = if distributed {
            m.write_dfs.total(rows, row_bytes)
        } else {
            m.write_local.total(rows, row_bytes)
        };
        let io = m.read_local.total(rows, row_bytes) + write;
        let cpu = self.sort_total(rows, row_bytes, tasks);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Builds the job for one join algorithm.
    pub(crate) fn join_job(&self, algo: JoinAlgorithm, j: &JoinInfo) -> Job {
        match algo {
            JoinAlgorithm::HiveShuffleJoin => self.shuffle_sort_merge_join(j, 1.0),
            JoinAlgorithm::HiveSkewJoin => self.skew_join(j),
            JoinAlgorithm::HiveBroadcastJoin => self.broadcast_hash_join(j, true),
            JoinAlgorithm::HiveBucketMapJoin => self.bucket_map_join(j),
            JoinAlgorithm::HiveSortMergeBucketJoin => self.sort_merge_bucket_join(j),
            JoinAlgorithm::SparkBroadcastHashJoin => self.broadcast_hash_join(j, false),
            JoinAlgorithm::SparkShuffleHashJoin => self.shuffle_hash_join(j),
            JoinAlgorithm::SparkSortMergeJoin => self.shuffle_sort_merge_join(j, 1.0),
            JoinAlgorithm::SparkBroadcastNestedLoopJoin => self.broadcast_nested_loop(j),
            JoinAlgorithm::SparkCartesianProductJoin => self.cartesian(j),
            JoinAlgorithm::RdbmsHashJoin => self.rdbms_hash_join(j),
            JoinAlgorithm::RdbmsSortMergeJoin => self.rdbms_sort_merge_join(j),
            JoinAlgorithm::RdbmsNestedLoopJoin => self.rdbms_nested_loop(j),
        }
    }

    /// Hive's common join / Spark's sort-merge join: map-side read + sort
    /// spill, shuffle, reduce-side merge, write.
    fn shuffle_sort_merge_join(&self, j: &JoinInfo, skew_factor: f64) -> Job {
        let m = self.micro;
        let map_tasks = self.blocks(j.big.total_bytes()) + self.blocks(j.small.total_bytes());
        let map_io = m.read_dfs.total(j.big.rows, j.big.row_bytes)
            + m.read_dfs.total(j.small.rows, j.small.row_bytes)
            + (m.write_local.total(j.big.rows, j.big.proj_bytes)
                + m.write_local.total(j.small.rows, j.small.proj_bytes))
                * 0.45;
        let map_cpu = m.scan.total(j.big.rows, j.big.row_bytes)
            + m.scan.total(j.small.rows, j.small.row_bytes)
            + self.sort_total(j.big.rows, j.big.proj_bytes, map_tasks)
            + self.sort_total(j.small.rows, j.small.proj_bytes, map_tasks);

        let shuffled_bytes = j.big.total_proj_bytes() + j.small.total_proj_bytes();
        // Reducer counts are bounded (Hive defaults cap reducers near the
        // slot count), so per-reducer volume grows with the input; past
        // the in-memory sort budget the reducer runs an external merge
        // with extra local-disk passes — a super-linear regime a linear
        // model cannot track.
        let reduce_tasks = self
            .blocks(shuffled_bytes)
            .min(4 * self.cluster.total_cores() as u64)
            .max(1);
        let per_reducer_bytes = shuffled_bytes / reduce_tasks as f64;
        let budget = self.cluster.task_hash_budget_bytes() as f64;
        let merge_passes = if per_reducer_bytes > budget {
            (per_reducer_bytes / budget).log2().ceil().max(1.0)
        } else {
            0.0
        };
        let spill_io = merge_passes
            * (m.write_local.total(j.big.rows, j.big.proj_bytes)
                + m.write_local.total(j.small.rows, j.small.proj_bytes)
                + m.read_local.total(j.big.rows, j.big.proj_bytes)
                + m.read_local.total(j.small.rows, j.small.proj_bytes));
        // Map outputs are combined and compressed before the shuffle
        // (mapreduce.map.output.compress); the primitive shuffle probe
        // has no combiner, so learned shuffle rates overestimate the
        // in-join shuffle — part of the sub-op approach's systematic
        // overestimation (Fig. 13g).
        const INTERMEDIATE_COMPRESSION: f64 = 0.45;
        let reduce_io = (m.shuffle.total(j.big.rows, j.big.proj_bytes)
            + m.shuffle.total(j.small.rows, j.small.proj_bytes))
            * INTERMEDIATE_COMPRESSION
            + spill_io
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let reduce_cpu = (m.scan.total(j.big.rows, j.big.proj_bytes)
            + m.scan.total(j.small.rows, j.small.proj_bytes)
            + self.join_merge_total(j.out_rows, j.out_bytes))
            * skew_factor;
        Job {
            stages: vec![
                Stage::parallel(map_tasks, map_io, map_cpu),
                Stage::parallel(reduce_tasks, reduce_io, reduce_cpu),
            ],
        }
    }

    /// Skew join: shuffle join where the heaviest key serialises one
    /// reducer; modelled as a serial prelude of the heavy key's merge work.
    fn skew_join(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let mut job = self.shuffle_sort_merge_join(j, 1.0);
        let heavy = m.rec_merge.total(j.heavy_key_rows, j.out_bytes)
            + m.sort.total(j.heavy_key_rows, j.big.proj_bytes);
        if let Some(last) = job.stages.last_mut() {
            last.serial_prelude_us += heavy;
        }
        job
    }

    /// The Fig. 6 broadcast join. `from_disk` distinguishes Hive (each
    /// task re-reads the broadcast file from local disk) from Spark (the
    /// build side stays cached in memory).
    fn broadcast_hash_join(&self, j: &JoinInfo, from_disk: bool) -> Job {
        let m = self.micro;
        let tasks = self.blocks(j.big.total_bytes());
        // Performed once: read S from DFS and broadcast it (Fig. 6's
        // `rD·|S| + b·|S|`).
        let prelude = m.read_dfs.total(j.small.rows, j.small.row_bytes)
            + m.broadcast(j.small.row_bytes, self.cluster.nodes) * j.small.rows;
        // Performed by every task: (re)load S, build its hash table, read
        // its own block of R, probe, write its share of the output.
        let fits = self.fits_hash_budget(j.small.total_bytes());
        let t = tasks as f64;
        let reload = if from_disk {
            m.read_local.total(j.small.rows, j.small.row_bytes) * t
        } else {
            m.scan.total(j.small.rows, j.small.row_bytes) * t
        };
        let io = reload
            + m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let cpu = m.hash_insert(j.small.row_bytes, fits) * j.small.rows * t
            + m.hash_probe.total(j.big.rows, j.big.row_bytes);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu).with_prelude(prelude)],
        }
    }

    /// Bucket map join: like broadcast, but each task loads only its own
    /// bucket of the small side (1/tasks of it).
    fn bucket_map_join(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = self.blocks(j.big.total_bytes());
        let fits = self.fits_hash_budget(j.small.total_bytes() / tasks as f64);
        let io = m.read_local.total(j.small.rows, j.small.row_bytes)
            + m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let cpu = m.hash_insert(j.small.row_bytes, fits) * j.small.rows
            + m.hash_probe.total(j.big.rows, j.big.row_bytes);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Sort-merge bucket join: co-bucketed pre-sorted inputs are merged
    /// directly, no shuffle and no sort.
    fn sort_merge_bucket_join(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = self
            .blocks(j.big.total_bytes())
            .max(self.blocks(j.small.total_bytes()));
        let io = m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.read_local.total(j.small.rows, j.small.row_bytes)
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let cpu = m.scan.total(j.big.rows, j.big.proj_bytes)
            + m.scan.total(j.small.rows, j.small.proj_bytes)
            + self.join_merge_total(j.out_rows, j.out_bytes);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Spark shuffle-hash join: shuffle both sides, hash-build the small
    /// partition, probe the big one.
    fn shuffle_hash_join(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let map_tasks = self.blocks(j.big.total_bytes()) + self.blocks(j.small.total_bytes());
        let map_io = m.read_dfs.total(j.big.rows, j.big.row_bytes)
            + m.read_dfs.total(j.small.rows, j.small.row_bytes);
        let map_cpu = m.scan.total(j.big.rows, j.big.row_bytes)
            + m.scan.total(j.small.rows, j.small.row_bytes);

        let reduce_tasks = self.blocks(j.big.total_proj_bytes() + j.small.total_proj_bytes());
        let fits = self.fits_hash_budget(j.small.total_proj_bytes() / reduce_tasks as f64);
        let reduce_io = m.shuffle.total(j.big.rows, j.big.proj_bytes)
            + m.shuffle.total(j.small.rows, j.small.proj_bytes)
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let reduce_cpu = m.hash_insert(j.small.proj_bytes, fits) * j.small.rows
            + m.hash_probe.total(j.big.rows, j.big.proj_bytes)
            + self.join_merge_total(j.out_rows, j.out_bytes);
        Job {
            stages: vec![
                Stage::parallel(map_tasks, map_io, map_cpu),
                Stage::parallel(reduce_tasks, reduce_io, reduce_cpu),
            ],
        }
    }

    /// Spark broadcast nested-loop join: every (big-row, small-row) pair is
    /// compared.
    fn broadcast_nested_loop(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = self.blocks(j.big.total_bytes());
        let prelude = m.read_dfs.total(j.small.rows, j.small.row_bytes)
            + m.broadcast(j.small.row_bytes, self.cluster.nodes) * j.small.rows;
        let pairs = j.big.rows * j.small.rows;
        let io = m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let cpu = m.scan.per_record(j.small.proj_bytes) * pairs;
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu).with_prelude(prelude)],
        }
    }

    /// Spark Cartesian product: shuffles both sides everywhere, then pairs.
    fn cartesian(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = (self.blocks(j.big.total_bytes()) * self.blocks(j.small.total_bytes())).max(1);
        let io = m.shuffle.total(j.big.rows, j.big.proj_bytes)
            + m.shuffle.total(j.small.rows, j.small.proj_bytes)
            + m.write_dfs.total(j.out_rows, j.out_bytes);
        let pairs = j.big.rows * j.small.rows;
        let cpu = m.scan.per_record(j.small.proj_bytes) * pairs;
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Single-node RDBMS hash join.
    fn rdbms_hash_join(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = self.cluster.total_cores() as u64;
        let fits = self.fits_hash_budget(j.small.total_bytes());
        let io = m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.read_local.total(j.small.rows, j.small.row_bytes)
            + m.write_local.total(j.out_rows, j.out_bytes);
        let cpu = m.hash_insert(j.small.row_bytes, fits) * j.small.rows
            + m.hash_probe.total(j.big.rows, j.big.row_bytes)
            + self.join_merge_total(j.out_rows, j.out_bytes);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Single-node sort-merge join.
    fn rdbms_sort_merge_join(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = self.cluster.total_cores() as u64;
        let io = m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.read_local.total(j.small.rows, j.small.row_bytes)
            + m.write_local.total(j.out_rows, j.out_bytes);
        let cpu = self.sort_total(j.big.rows, j.big.proj_bytes, tasks)
            + self.sort_total(j.small.rows, j.small.proj_bytes, tasks)
            + self.join_merge_total(j.out_rows, j.out_bytes);
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Single-node nested loop (quadratic).
    fn rdbms_nested_loop(&self, j: &JoinInfo) -> Job {
        let m = self.micro;
        let tasks = self.cluster.total_cores() as u64;
        let io = m.read_local.total(j.big.rows, j.big.row_bytes)
            + m.read_local.total(j.small.rows, j.small.row_bytes)
            + m.write_local.total(j.out_rows, j.out_bytes);
        let cpu = m.scan.per_record(j.small.proj_bytes) * j.big.rows * j.small.rows;
        Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        }
    }

    /// Builds the job for an aggregation algorithm. `distributed` selects
    /// the two-stage map/reduce shape (Hive/Spark) vs single-node RDBMS.
    pub(crate) fn agg_job(&self, algo: AggAlgorithm, a: &AggInfo, distributed: bool) -> Job {
        let m = self.micro;
        if !distributed {
            let tasks = self.cluster.total_cores() as u64;
            let io = m.read_local.total(a.in_rows, a.in_bytes)
                + m.write_local.total(a.groups, a.out_bytes);
            let cpu = match algo {
                AggAlgorithm::HashAggregate => {
                    let fits = self.fits_hash_budget(a.groups * a.out_bytes);
                    m.hash_probe.total(a.in_rows, a.in_bytes)
                        + m.hash_insert(a.out_bytes, fits) * a.groups
                }
                AggAlgorithm::SortAggregate => {
                    self.sort_total(a.in_rows, a.in_bytes, self.cluster.total_cores() as u64)
                }
            } + m.agg_eval.total(a.in_rows, a.in_bytes) * a.n_aggs as f64;
            return Job {
                stages: vec![Stage::parallel(tasks, io, cpu)],
            };
        }

        let map_tasks = self.blocks(a.in_rows * a.in_bytes);
        // Map-side partial aggregation caps each task's output at the
        // group count.
        let partial_rows = a.in_rows.min(a.groups * map_tasks as f64);
        let map_io = m.read_dfs.total(a.in_rows, a.in_bytes);
        let eval = m.agg_eval.total(a.in_rows, a.in_bytes) * a.n_aggs as f64;
        let map_cpu = match algo {
            AggAlgorithm::HashAggregate => {
                let fits = self.fits_hash_budget(a.groups * a.out_bytes);
                m.scan.total(a.in_rows, a.in_bytes)
                    + m.hash_probe.total(a.in_rows, a.in_bytes)
                    + m.hash_insert(a.out_bytes, fits) * partial_rows
            }
            AggAlgorithm::SortAggregate => {
                m.scan.total(a.in_rows, a.in_bytes)
                    + self.sort_total(a.in_rows, a.in_bytes, map_tasks)
            }
        } + eval;

        let reduce_tasks = self.blocks(partial_rows * a.out_bytes);
        let reduce_io =
            m.shuffle.total(partial_rows, a.out_bytes) + m.write_dfs.total(a.groups, a.out_bytes);
        let reduce_cpu = m.rec_merge.total(partial_rows - a.groups, a.out_bytes)
            + m.scan.total(partial_rows, a.out_bytes);
        Job {
            stages: vec![
                Stage::parallel(map_tasks, map_io, map_cpu),
                Stage::parallel(reduce_tasks, reduce_io, reduce_cpu),
            ],
        }
    }

    /// Builds the job for one Fig. 5 probe query.
    pub(crate) fn probe_job(&self, spec: &catalog::remote::ProbeSpec) -> Job {
        use catalog::remote::ProbeKind as K;
        let m = self.micro;
        let rows = spec.rows as f64;
        let bytes = spec.record_bytes as f64;
        let tasks = self.blocks(rows * bytes);
        let read = m.read_dfs.total(rows, bytes);
        let job_one = |io: f64, cpu: f64| Job {
            stages: vec![Stage::parallel(tasks, io, cpu)],
        };
        match spec.kind {
            K::ReadDfs => job_one(read, 0.0),
            K::ReadWriteDfs => job_one(read + m.write_dfs.total(rows, bytes), 0.0),
            K::ReadDfsWriteLocal => job_one(read + m.write_local.total(rows, bytes), 0.0),
            K::ReadDfsReadLocal => job_one(read + m.read_local.total(rows, bytes), 0.0),
            K::ReadDfsBroadcast => {
                // The broadcast happens once, driver-side (Fig. 5 footnote 4).
                let prelude = m.broadcast(bytes, self.cluster.nodes) * rows;
                Job {
                    stages: vec![Stage::parallel(tasks, read, 0.0).with_prelude(prelude)],
                }
            }
            K::ReadDfsHashBuild => {
                let fits = if spec.force_spill {
                    false
                } else {
                    self.fits_hash_budget(self.cluster.dfs_block_bytes as f64)
                };
                job_one(read, m.hash_insert(bytes, fits) * rows)
            }
            K::ReadDfsHashProbe => job_one(read, m.hash_probe.total(rows, bytes)),
            K::ReadDfsSort => job_one(read, m.sort.total(rows, bytes)),
            K::ReadDfsScan => job_one(read, m.scan.total(rows, bytes)),
            K::ReadDfsMerge => job_one(read, m.rec_merge.total(rows, bytes)),
            K::ReadDfsShuffle => job_one(read + m.shuffle.total(rows, bytes), 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subop_cost::MicroCosts;
    use catalog::remote::{ProbeKind, ProbeSpec, SideInfo};

    fn model_parts() -> (MicroCosts, ClusterConfig) {
        (MicroCosts::hive_baseline(), ClusterConfig::paper_hive())
    }

    fn overheads() -> Overheads {
        Overheads {
            stage_startup_us: 2.0e6,
            task_startup_us: 5.0e4,
            overlap_residual: 0.55,
        }
    }

    fn join_info(big_rows: f64, small_rows: f64) -> JoinInfo {
        JoinInfo {
            big: SideInfo {
                rows: big_rows,
                row_bytes: 250.0,
                proj_bytes: 12.0,
            },
            small: SideInfo {
                rows: small_rows,
                row_bytes: 100.0,
                proj_bytes: 12.0,
            },
            out_rows: small_rows,
            out_bytes: 24.0,
            heavy_key_rows: 1.0,
        }
    }

    #[test]
    fn stage_elapsed_accounts_for_waves_and_overlap() {
        let (_, cluster) = model_parts();
        let ov = overheads();
        // 7 tasks on 6 cores -> 2 waves; io 600, cpu 60 -> effective 633.
        let job = Job {
            stages: vec![Stage::parallel(7, 600.0, 60.0)],
        };
        let e = job.elapsed(&cluster, &ov).as_micros();
        let expect = 2.0e6 + 2.0 * 5.0e4 + (600.0 + 0.55 * 60.0) / 6.0;
        assert!((e - expect).abs() < 1e-6, "elapsed {e} expect {expect}");
    }

    #[test]
    fn pure_io_stage_has_no_overlap_discount() {
        let (_, cluster) = model_parts();
        let ov = overheads();
        let job = Job {
            stages: vec![Stage::parallel(1, 600.0, 0.0)],
        };
        let e = job.elapsed(&cluster, &ov).as_micros();
        assert!((e - (2.0e6 + 5.0e4 + 100.0)).abs() < 1e-6);
    }

    #[test]
    fn probe_read_dfs_work_matches_micro_cost() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let job = em.probe_job(&ProbeSpec::new(ProbeKind::ReadDfs, 1_000_000, 1_000));
        let expect = micro.read_dfs.total(1e6, 1000.0);
        assert!((job.total_work_us() - expect).abs() < 1e-6);
    }

    #[test]
    fn probe_write_includes_read_component() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let rd = em
            .probe_job(&ProbeSpec::new(ProbeKind::ReadDfs, 1000, 500))
            .total_work_us();
        let rw = em
            .probe_job(&ProbeSpec::new(ProbeKind::ReadWriteDfs, 1000, 500))
            .total_work_us();
        let diff_per_rec = (rw - rd) / 1000.0;
        assert!((diff_per_rec - micro.write_dfs.per_record(500.0)).abs() < 1e-9);
    }

    #[test]
    fn forced_spill_probe_costs_more() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let mem = em.probe_job(&ProbeSpec::new(ProbeKind::ReadDfsHashBuild, 10_000, 1_000));
        let spill =
            em.probe_job(&ProbeSpec::new(ProbeKind::ReadDfsHashBuild, 10_000, 1_000).spilling());
        assert!(spill.total_work_us() > mem.total_work_us());
    }

    #[test]
    fn broadcast_join_repeats_build_per_task() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        // Big side: 10M rows × 250B = 2.5GB -> many blocks/tasks.
        let big = join_info(10_000_000.0, 10_000.0);
        let small_big_side = join_info(1_000_000.0, 10_000.0);
        let j_many = em.join_job(JoinAlgorithm::HiveBroadcastJoin, &big);
        let j_few = em.join_job(JoinAlgorithm::HiveBroadcastJoin, &small_big_side);
        // Build work scales with the number of probe-side tasks, so the
        // per-big-row work is higher with more tasks.
        let per_row_many = j_many.total_work_us() / big.big.rows;
        let per_row_few = j_few.total_work_us() / small_big_side.big.rows;
        assert!(per_row_many > 0.0 && per_row_few > 0.0);
        let tasks_many = cluster.blocks_for(big.big.total_bytes() as u64);
        let tasks_few = cluster.blocks_for(small_big_side.big.total_bytes() as u64);
        assert!(tasks_many > tasks_few);
    }

    #[test]
    fn shuffle_join_has_two_stages() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let j = em.join_job(JoinAlgorithm::HiveShuffleJoin, &join_info(1e6, 1e5));
        assert_eq!(j.stages.len(), 2);
    }

    #[test]
    fn skew_join_is_costlier_than_shuffle_join_under_skew() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let mut info = join_info(1e6, 1e5);
        info.heavy_key_rows = 200_000.0;
        let ov = overheads();
        let skew = em
            .join_job(JoinAlgorithm::HiveSkewJoin, &info)
            .elapsed(&cluster, &ov);
        let plain = em
            .join_job(JoinAlgorithm::HiveShuffleJoin, &info)
            .elapsed(&cluster, &ov);
        assert!(skew > plain);
    }

    #[test]
    fn nested_loop_is_quadratic() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let small = em.join_job(JoinAlgorithm::RdbmsNestedLoopJoin, &join_info(1e3, 1e3));
        let big = em.join_job(JoinAlgorithm::RdbmsNestedLoopJoin, &join_info(1e4, 1e4));
        // 10x inputs -> ~100x work.
        let ratio = big.total_work_us() / small.total_work_us();
        assert!(ratio > 50.0, "ratio {ratio}");
    }

    #[test]
    fn sort_job_adds_cpu_over_a_plain_rewrite() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let job = em.sort_job(1e6, 100.0, true);
        assert_eq!(job.stages.len(), 1);
        let stage = job.stages[0];
        assert!(stage.cpu_us > 0.0, "sorting is CPU work");
        // The CPU share reflects the n·log n sort of ~1M-row runs: more
        // than the plain scan cost of the same data.
        let scan_cpu = micro.scan.total(1e6, 100.0);
        assert!(
            stage.cpu_us > scan_cpu,
            "sort {} vs scan {scan_cpu}",
            stage.cpu_us
        );
        // Larger runs per task sort disproportionately: one mega-task
        // (single block) vs many blocks.
        let single_block = ClusterConfig {
            dfs_block_bytes: 1 << 40,
            ..cluster
        };
        let em_one = ExecModel {
            micro: &micro,
            cluster: &single_block,
        };
        let one_task = em_one.sort_job(8e6, 100.0, true).stages[0].cpu_us;
        let many_tasks = em.sort_job(8e6, 100.0, true).stages[0].cpu_us;
        assert!(one_task > many_tasks, "{one_task} vs {many_tasks}");
    }

    #[test]
    fn agg_job_scales_with_aggregate_count() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let base = AggInfo {
            in_rows: 1e6,
            in_bytes: 250.0,
            groups: 1e4,
            out_bytes: 12.0,
            n_aggs: 1,
        };
        let five = AggInfo { n_aggs: 5, ..base };
        let w1 = em
            .agg_job(AggAlgorithm::HashAggregate, &base, true)
            .total_work_us();
        let w5 = em
            .agg_job(AggAlgorithm::HashAggregate, &five, true)
            .total_work_us();
        assert!(w5 > w1);
    }

    #[test]
    fn distributed_agg_has_two_stages_rdbms_one() {
        let (micro, cluster) = model_parts();
        let em = ExecModel {
            micro: &micro,
            cluster: &cluster,
        };
        let a = AggInfo {
            in_rows: 1e5,
            in_bytes: 100.0,
            groups: 100.0,
            out_bytes: 12.0,
            n_aggs: 1,
        };
        assert_eq!(
            em.agg_job(AggAlgorithm::HashAggregate, &a, true)
                .stages
                .len(),
            2
        );
        assert_eq!(
            em.agg_job(AggAlgorithm::HashAggregate, &a, false)
                .stages
                .len(),
            1
        );
    }
}
