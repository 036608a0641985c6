"""The repo's end-to-end benchmark: four closed-loop workloads measured from
outside, plus a staged per-layer trace. See README.md in this directory."""
