"""End-to-end and per-layer benchmark for otp-remctl; see README.md."""
