"""subnetpred: interference simulation, calibrated tail prediction, and
risk-aware resource allocation for dense industrial sub-networks."""
