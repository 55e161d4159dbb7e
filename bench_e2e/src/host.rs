//! Host-speed normalization.
//!
//! A shared host runs the same work at different speeds from one moment to
//! the next. On a 2-vCPU VM, requests of one input ran up to 1.5× their
//! fastest time through stretches of several seconds, and whole runs a few
//! minutes apart differed by 30% in median request time. Neither a median
//! nor the fastest repeat of a run then measures the program, because how
//! much of a run falls in slow stretches changes from run to run.
//!
//! So the benchmark times a fixed reference kernel of its own (a 96×96 f32
//! matrix product that calls no program code) next to the program, and
//! reports host times in milliseconds at a nominal host speed: the wall
//! time scaled by [`REFERENCE_MS`] over the reference time measured around
//! it. A short call (a request, a cold start, a simulation) runs between
//! two reference samples and is scaled by the faster of the two. A call too
//! long to sit inside one stretch (Algorithm 1, the calibration pipeline) is
//! scaled by the mean reference sample over the phase of the run it ran in
//! (set-up, or the measured loop), which follows how slow the host was over
//! that phase. Set-up time itself is not scaled.
//!
//! A workload whose calls keep the program's pool busy on both cores is
//! slowed by whichever core is slow, so its reference sample runs the
//! kernel on two threads at once and takes the mean of the two.

use snapea_obs::Stopwatch;

/// Matrix order of the reference kernel.
const N: usize = 96;

/// Nominal wall time of one reference sample, milliseconds: the fastest
/// sample seen on the 2-vCPU development VM. Host times are reported as
/// if every reference sample had taken this long.
pub const REFERENCE_MS: f64 = 0.085;

/// The reference kernel's operands.
struct Kernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Kernel {
    fn new() -> Self {
        Self {
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect(),
            c: vec![0.0; N * N],
        }
    }

    /// Runs the matrix product once; returns its wall time, milliseconds.
    fn run(&mut self) -> f64 {
        let t = Stopwatch::start();
        self.c.fill(0.0);
        for (a_row, c_row) in self.a.chunks_exact(N).zip(self.c.chunks_exact_mut(N)) {
            for (&a, b_row) in a_row.iter().zip(self.b.chunks_exact(N)) {
                for (c, &b) in c_row.iter_mut().zip(b_row) {
                    *c += a * b;
                }
            }
        }
        std::hint::black_box(&self.c);
        t.elapsed_ms()
    }
}

/// The reference kernel, one per sampling thread, and the sum of its
/// samples.
pub struct Reference {
    kernels: Vec<Kernel>,
    sum_ms: f64,
    samples: u64,
}

/// One short call timed between two reference samples.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time of the call, milliseconds.
    pub ms: f64,
    /// The faster of the reference samples around it, milliseconds.
    pub reference_ms: f64,
    /// The reference sample taken after it, milliseconds.
    pub after_ms: f64,
}

impl Timed {
    /// The call's wall time at the nominal host speed, milliseconds.
    pub fn nominal_ms(&self) -> f64 {
        self.nominal(self.ms)
    }

    /// `ms` of work inside the call at the nominal host speed.
    pub fn nominal(&self, ms: f64) -> f64 {
        ms * REFERENCE_MS / self.reference_ms
    }
}

/// The reference's samples up to the start of a phase of the run.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    sum_ms: f64,
    samples: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Reference {
    /// A reference that samples on `threads` threads at once (1 or 2).
    pub fn new(threads: usize) -> Self {
        Self {
            kernels: (0..threads.clamp(1, 2)).map(|_| Kernel::new()).collect(),
            sum_ms: 0.0,
            samples: 0,
        }
    }

    /// Runs the kernel once on each sampling thread at once; returns the
    /// mean wall time, milliseconds.
    pub fn sample(&mut self) -> f64 {
        let ms = match self.kernels.as_mut_slice() {
            [here, there] => std::thread::scope(|s| {
                let other = s.spawn(|| there.run());
                let mine = here.run();
                // A helper thread that failed leaves this thread's sample.
                other.join().map_or(mine, |theirs| 0.5 * (mine + theirs))
            }),
            [here, ..] => here.run(),
            [] => 0.0,
        };
        self.sum_ms += ms;
        self.samples += 1;
        ms
    }

    /// Runs the short call `f` between two reference samples; `before`
    /// reuses a sample taken just before `f` (the `after_ms` of the call
    /// before it).
    pub fn time<T>(&mut self, before: Option<f64>, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = before.unwrap_or_else(|| self.sample());
        let t = Stopwatch::start();
        let out = f();
        let ms = t.elapsed_ms();
        let after = self.sample();
        let timed = Timed {
            ms,
            reference_ms: before.min(after),
            after_ms: after,
        };
        (out, timed)
    }

    /// Marks the start of a phase of the run.
    pub fn mark(&self) -> Mark {
        Mark {
            sum_ms: self.sum_ms,
            samples: self.samples,
        }
    }

    /// Scale from the wall time of a long call in the phase that started at
    /// `since` to the nominal host speed: the nominal sample over the
    /// phase's mean sample (1 if the phase took no sample).
    pub fn long_call_scale(&self, since: Mark) -> f64 {
        let samples = self.samples - since.samples;
        if samples == 0 {
            1.0
        } else {
            REFERENCE_MS * samples as f64 / (self.sum_ms - since.sum_ms)
        }
    }
}
