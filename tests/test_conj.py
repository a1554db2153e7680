import pytest

from slopecert.conj import congruence_pin


class TestCongruencePin:
    def test_examples(self):
        assert congruence_pin(6, 3, 2, 1) == 1  # 9 > 6 pins
        assert congruence_pin(6, 2, 2, 1) is None  # -3 = 1 mod 4 also qualifies
        assert congruence_pin(0, 5, 1, 0) == 0

    def test_exhaustive_against_enumeration(self):
        for p in (2, 3, 5, 7):
            for N in range(1, 7):
                if p**N > 64:
                    continue
                for t_bound in range(0, 11):
                    for target in (-1, 0, 1):
                        qualifying = [
                            t
                            for t in range(target - t_bound, target + t_bound + 1)
                            if (t - target) % p**N == 0
                        ]
                        pinned = congruence_pin(t_bound, p, N, target)
                        if qualifying == [target]:
                            assert pinned == target
                        else:
                            assert pinned is None

    @pytest.mark.parametrize("n", range(1, 11))
    def test_instance_from_trace_comparison(self, n):
        # p^N > 2n+4 and |t - t'| <= 2n+4 forces t = t'
        bound = 2 * n + 4
        p, N = 3, 1
        while p**N <= bound:
            N += 1
        assert congruence_pin(bound, p, N, 1) == 1
