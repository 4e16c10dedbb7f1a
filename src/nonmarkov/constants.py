"""Central tolerance table.

Every numerical tolerance used by the library lives here so that the
implementation and the test suite agree on a single source of truth.
"""

# Hermiticity / physicality of density matrices
HERMITICITY_TOL = 1e-12      # max |M - M^dagger| accepted before symmetrizing
TRACE_TOL = 1e-12            # |tr(rho) - 1| accepted
PSD_EIGENVALUE_FLOOR = -1e-10  # smallest eigenvalue accepted as "positive"

# State parameterization
COHERENCE_SLACK = 1e-12      # |beta|^2 <= alpha(1-alpha) + this

# Amplitudes: trajectories, channel inputs and the signals made from them
AMPLITUDE_BOUND_SLACK = 1e-8     # |b| <= 1 + this: stored trajectories and channel inputs;
                                 # signals stay within [0, 1] by this
AMPLITUDE_INSTABILITY_SLACK = 1e-6  # solver aborts past 1 + this

# Largest step count round(t_max/dt) of a grid the CLI builds: a 2 GiB budget
# at 256 bytes per step (a Volterra `measure` at 2^17 steps peaks at 147 bytes
# per step on an Ohmic spectrum, 80 on a resonant Lorentzian; the closed-form
# chain of `verify` and the library at 17; `simulate` at 8, 16 for a complex b).
MAX_STEPS = 2**31 // 256

# Largest number of extrema (rising intervals) a grid-free resonant-Lorentzian
# `measure` lists (see `measure._resonant_measures`), which builds no grid and
# so has no step cap. Each listed interval costs about 0.9 KiB of peak RSS in
# the three reports and their dicts, as the JSON is streamed: 60 880 of them
# (width 2e-8) took 1.8 s and peaked at 87 MB. 2^16 is reached near width 1.7e-8.
MAX_EXTREMA = 2**16

# Lorentzian regime boundaries
# Labels reports and drives truncation only; the closed form branches on
# the exact sign of gamma0 - width/2 and needs no window.
CRITICAL_REGIME_REL_TOL = 1e-12  # classify: |gamma0 - width/2| <= this * width

# Extremum detection and measure truncation
PLATEAU_TOL = 1e-14          # |forward difference| below this is a plateau
ENVELOPE_CUTOFF = 1e-8       # stop summing maxima once the envelope is below
TAIL_SAFETY = 1e-6           # relative inflation of reported tail bounds
TAIL_ROUNDING = 2.0**-48     # grid-free resonant tails: margin, times q(1 + |ln q|)/(1-q)^2

# Theorem verification
THEOREM_SLACK = 1e-9         # D(t) <= |b(t)| + this
CANONICAL_EQUALITY_TOL = 1e-12  # optimal pair must reach |b| this exactly
