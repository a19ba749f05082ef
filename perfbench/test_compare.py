"""Tests of how --compare pairs reports.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import run


def report(seed, sha="a", workload="dispute"):
    return {"fingerprint": {"workload": workload, "seed": seed,
                            "git_sha": sha, "source_digest": sha + "-src"},
            "end_to_end": {}}


class PairReportsTest(unittest.TestCase):
    def test_pairs_by_everything_but_the_commit(self):
        base, new = run.pair_reports([report(1), report(2)],
                                     [report(2, "b"), report(1, "b")])
        self.assertEqual(sorted(base), sorted(new))
        for k in base:
            self.assertEqual(base[k]["fingerprint"]["seed"],
                             new[k]["fingerprint"]["seed"])
            self.assertEqual(new[k]["fingerprint"]["git_sha"], "b")

    def test_refuses_an_unpaired_report(self):
        with self.assertRaisesRegex(ValueError, "no counterpart"):
            run.pair_reports([report(1), report(2)], [report(1, "b")])
        with self.assertRaisesRegex(ValueError, "no counterpart"):
            run.pair_reports([report(1)], [report(1, "b", "publish")])

    def test_refuses_two_reports_of_one_fingerprint(self):
        with self.assertRaisesRegex(ValueError, "two base reports"):
            run.pair_reports([report(1), report(1)],
                             [report(1, "b"), report(1, "b")])
        with self.assertRaisesRegex(ValueError, "two new reports"):
            run.pair_reports([report(1)], [report(1, "b"), report(1, "c")])


if __name__ == "__main__":
    unittest.main()
