"""Sharp decay envelopes for defective linear ODE systems.

The package constructs (possibly time-dependent) Lyapunov norms adapted to a
positive stable matrix C, derives decay envelopes of the form
C * (1 + t^(2(M-1))) * exp(-2 mu t) for solutions of dx/dt = -C x with fully
explicit constants, and verifies those envelopes against the exact matrix
propagator.  Three spectral sensitivity models (convection-diffusion,
two-velocity relaxation, Fokker-Planck) exercise the machinery uniformly in
an uncertainty parameter.  Each name lives in its module, so import the
module (``from lyapdecay import oracle``); the package itself exports none.
"""
