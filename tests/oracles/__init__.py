"""Obviously-correct reference implementations the real code is tested against."""
