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

# Amplitude trajectories
AMPLITUDE_BOUND_SLACK = 1e-8     # |b(t)| <= 1 + this for stored trajectories
AMPLITUDE_INSTABILITY_SLACK = 1e-6  # solver aborts past 1 + this
CHANNEL_INPUT_SLACK = 1e-8       # |b| <= 1 + this accepted by the channel

# Largest step count round(t_max/dt) the CLI runs: a 2 GiB budget at 256
# bytes per step (a Volterra `measure` peaks near 225 bytes per step).
MAX_STEPS = 2**31 // 256

# Lorentzian regime boundaries
# Labels reports and drives truncation only; the closed form branches on
# the exact sign of gamma0 - width/2 and needs no window.
CRITICAL_REGIME_REL_TOL = 1e-12  # classify: |gamma0 - width/2| <= this * width

# Extremum detection and measure truncation
PLATEAU_TOL = 1e-14          # |forward difference| below this is a plateau
MIN_VALUE_TOL = 1e-6         # default: how close to zero a minimum must be
ENVELOPE_CUTOFF = 1e-8       # stop summing maxima once the envelope is below
TAIL_SAFETY = 1e-6           # relative inflation of reported tail bounds

# Theorem verification
THEOREM_SLACK = 1e-9         # D(t) <= |b(t)| + this
CANONICAL_EQUALITY_TOL = 1e-12  # optimal pair must reach |b| this exactly
