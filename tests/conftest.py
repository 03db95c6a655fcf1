import tracemalloc


def peak_traced_bytes(f, *args, **kwargs) -> int:
    """The tracemalloc peak of one call f(*args, **kwargs), after a first
    call that warms caches and lazy imports outside the measurement."""
    f(*args, **kwargs)
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
