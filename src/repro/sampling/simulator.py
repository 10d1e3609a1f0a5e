# The only reason this module exists: perfbench/spans.py's LAYER_HOOKS has an
# "sm_step" row that names this alias of the core.  Nothing else imports it.
from repro.sampling.vector import VectorSMSimulator as SMSimulator

__all__ = ["SMSimulator"]
