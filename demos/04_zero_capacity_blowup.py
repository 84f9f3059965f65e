"""The sigma = 1 regime: a series with a finite horizon vs robust schemes.

With beta = gamma + mu the carrying capacity vanishes and the infected
fraction decays like the solution of D^alpha u = -u^2.  The explicit
series only converges on (0, r_alpha); for alpha = 0.5 that radius sits
well inside the experiment window, the partial sums blow up, and the
evaluator flags it in-band while both time steppers march through
unharmed.
"""

from pathlib import Path

import numpy as np

from fracsis import Method, run_c0_suite

OUT = Path("out/zero-capacity")

entries = run_c0_suite(out=OUT, formats=("csv", "json", "svg"))

for e in entries:
    series = e.trajectories[Method.SERIES]
    pece = e.trajectories[Method.PECE]
    print(f"alpha = {e.alpha}")
    if e.series_diverged_at is None:
        dev = np.max(np.abs(series.u - pece.u))
        print(f"  series converged on the whole grid, {dev:.1e} from PECE")
    else:
        ok = np.array(series.meta["converged"])
        dev = np.max(np.abs(series.u[ok] - pece.u[ok]))
        flagged = np.abs(series.u[~ok] - pece.u[~ok])
        print(f"  series flagged non-converged from t = {e.series_diverged_at:g}")
        print(f"  where convergent it sits {dev:.1e} from PECE")
        if np.max(flagged) > 0.01:
            print(f"  flagged partial sums drift {np.max(flagged):.3g} from PECE: real blow-up")
        else:
            print(f"  flagged values still within {np.max(flagged):.1e} of PECE: the")
            print("  stopping rule merely ran out of its 120-term budget there")
    print(f"  schemes bounded in [0, 1]: {e.schemes_bounded}")
    print(f"  I/S crossing nodes: {e.crossing}\n")

print("the crossing drifts right as alpha falls from 0.99 to 0.5: the")
print("fractional dynamics hold the infection above the susceptibles longer.")
print(f"artifacts in {OUT}/")
