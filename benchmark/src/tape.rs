//! The seeded operation tape: which op each job issues next.
//!
//! The tape is a pure function of `(seed, shape)`. The program under test
//! never sees the seed, only the `(write, offset)` pairs drawn here.

/// What one job issues next.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TapeOp {
    /// Write (true) or read.
    pub write: bool,
    /// Block-aligned byte offset inside the job's file.
    pub offset: u64,
    /// Virtual nanoseconds the job waits between seeing the previous
    /// completion and submitting this op.
    pub think_ns: u64,
}

/// Upper edge of the per-op think time. A deterministic saturated closed
/// loop locks into one phase and gives every op the same latency; real
/// submitters jitter. Under a microsecond per op is below every workload's
/// per-op service time, so a saturated queue absorbs it, yet it lets the
/// order of arrival at each queue vary with the seed. A think time is the
/// larger of two uniform draws: a submitter rarely turns around in no time
/// at all, and a density that vanishes at zero keeps the highest latency
/// quantiles (the ops that thought least) from collapsing onto one value.
pub const THINK_MAX_NS: u64 = 1000;

/// Ops per deck of a mixed phase: each deck holds exactly its share of
/// writes at shuffled positions, so the mix is exact over every 20 ops of
/// a job and the count of writes does not wander with the seed.
pub const DECK: usize = 20;

/// Read/write composition of one phase.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every op reads.
    Reads,
    /// Every op writes.
    Writes,
    /// This percentage of every [`DECK`] ops reads (a multiple of 5).
    ReadPercent(u8),
}

/// Offset pattern and composition of one phase.
#[derive(Copy, Clone, Debug)]
pub struct TapeShape {
    /// Block size in bytes.
    pub bs: u64,
    /// Per-job file size in bytes.
    pub region: u64,
    /// Uniform random block offsets; otherwise sequential from a seeded
    /// start block, wrapping at the end of the file.
    pub random: bool,
    /// Read/write composition.
    pub mix: Mix,
}

/// xoshiro256** seeded through splitmix64 (the benchmark's own generator,
/// so a change to the program's RNG cannot move the inputs).
#[derive(Clone, Debug)]
struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95);
        Rng([
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ])
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..bound` (multiply-shift; the bias at these bounds is
    /// below 2^-40).
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

#[derive(Clone, Debug)]
struct JobTape {
    rng: Rng,
    /// Next sequential block.
    cursor: u64,
    /// The current deck of a mixed phase (true = write) and the next card.
    deck: [bool; DECK],
    card: usize,
}

/// One phase's tape: an independent stream per job.
#[derive(Clone, Debug)]
pub struct Tape {
    shape: TapeShape,
    slots: u64,
    jobs: Vec<JobTape>,
}

impl Tape {
    /// The tape of `jobs` jobs for `seed`.
    pub fn new(seed: u64, jobs: usize, shape: TapeShape) -> Self {
        let slots = (shape.region / shape.bs).max(1);
        let jobs = (0..jobs as u64)
            .map(|j| {
                let mut rng = Rng::new(seed, j);
                let cursor = rng.below(slots);
                JobTape {
                    rng,
                    cursor,
                    deck: [false; DECK],
                    card: DECK,
                }
            })
            .collect();
        Tape { shape, slots, jobs }
    }

    /// Draws `job`'s next op.
    pub fn next(&mut self, job: usize) -> TapeOp {
        let slots = self.slots;
        let j = &mut self.jobs[job];
        let write = match self.shape.mix {
            Mix::Reads => false,
            Mix::Writes => true,
            Mix::ReadPercent(p) => {
                if j.card == DECK {
                    let writes = DECK - usize::from(p) * DECK / 100;
                    for (i, c) in j.deck.iter_mut().enumerate() {
                        *c = i < writes;
                    }
                    for i in (1..DECK).rev() {
                        j.deck.swap(i, j.rng.below(i as u64 + 1) as usize);
                    }
                    j.card = 0;
                }
                j.card += 1;
                j.deck[j.card - 1]
            }
        };
        let block = if self.shape.random {
            j.rng.below(slots)
        } else {
            let b = j.cursor;
            j.cursor = (b + 1) % slots;
            b
        };
        TapeOp {
            write,
            offset: block * self.shape.bs,
            think_ns: j.rng.below(THINK_MAX_NS).max(j.rng.below(THINK_MAX_NS)),
        }
    }
}
