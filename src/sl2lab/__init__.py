"""Exact computation in SL2(F_q): symmetry sets of plane subsets,
their size bounds, and the 3-space incidence geometry behind them."""
