"""Benchmark of `extc check`: corpus generator, runner and tracer."""
