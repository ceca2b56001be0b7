"""Closed-form outage analysis and power allocation for RIS-assisted
BS-to-UAV downlink NOMA, with a Monte Carlo cross-validation oracle."""

__version__ = "0.1.0"
