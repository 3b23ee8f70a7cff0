"""covfn: estimation of smooth functionals <f(Sigma), B> of covariance
matrices, with bootstrap-chain bias reduction and a simulation harness."""

__version__ = "0.1.0"
