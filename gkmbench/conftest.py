# The benchmark's tests pin behaviour of the seed commit (known failures,
# minimal truncations), so they run on request rather than with the
# repository's suite:  python -m pytest gkmbench/tests
collect_ignore = ["tests"]
