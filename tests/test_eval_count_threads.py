"""eval_count() is each thread's own count: two threads scoring at once each
read exactly their own work."""

import sys
import threading

from phonomem import eval_count, ranked_next_sounds, reset_eval_count

CALLS = 20_000


def test_two_threads_each_count_only_their_own_work(latin, latin_model):
    prefixes = [w[:k] for w in latin.words for k in range(len(w))]
    barrier = threading.Barrier(2, timeout=10)
    counts = [None, None]

    def score(k):
        reset_eval_count()
        barrier.wait()
        for i in range(CALLS):
            ranked_next_sounds(latin_model, prefixes[(i + k) % len(prefixes)])
        counts[k] = eval_count()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == [CALLS * latin_model.d] * 2


def test_a_new_thread_starts_from_zero(latin_model):
    reset_eval_count()
    ranked_next_sounds(latin_model, (0,))
    seen = []
    t = threading.Thread(target=lambda: seen.append(eval_count()))
    t.start()
    t.join(timeout=30)
    assert seen == [0]
    assert eval_count() == latin_model.d
