#!/usr/bin/env python3
"""Measure generator defaults against the positional and grid targets.

Used when tuning the field defaults of ``GeneratorParams``; not part of the
test suite.
"""

import sys
import time

from selfcite.corpus import normalize
from selfcite.generator import GeneratorParams, generate, shuffle_control, validate_signature
from selfcite.posstats import positional_stats
from selfcite.profiles import load_profile


def main():
    profile = load_profile("vms")
    params = GeneratorParams()
    if len(sys.argv) > 1:
        params = params._replace(target_token_count=int(sys.argv[1]))
    seeds = range(1, 11)
    print(f"tokens={params.target_token_count} copy={params.copy_probability} "
          f"mut={params.mutation_count_distribution}")
    print(f"{'seed':>4} {'gallows':>8} {'prefix':>7} {'intern':>7} {'2nd<':>6} "
          f"{'2nd>':>6} {'subgrp':>7} {'lift':>6} {'decay':>18} {'shufOK':>6} {'t':>5}")
    for seed in seeds:
        t0 = time.time()
        corpus = generate(params._replace(rng_seed=seed), profile.alphabet)
        norm = normalize(corpus, profile.alphabet)
        stats = positional_stats(norm, profile.gallows, profile.prefixes,
                                 profile.line_final_glyphs)
        sig = validate_signature(corpus, profile.alphabet)
        shuf = validate_signature(shuffle_control(corpus, seed + 100),
                                  profile.alphabet)
        decay = "".join("T" if sig.row_decay[d] else "f" for d in (0, 1, 2))
        sdecay = "".join("T" if shuf.row_decay[d] else "f" for d in (0, 1, 2))
        print(f"{seed:>4} {stats.paragraph_initial_gallows_rate.value:>8.3f} "
              f"{stats.line_initial_prefix_rate.value:>7.3f} "
              f"{stats.line_internal_prefix_rate.value:>7.3f} "
              f"{stats.second_shorter_rate.value:>6.3f} "
              f"{stats.second_longer_rate.value:>6.3f} "
              f"{stats.second_word_subgroup_rate.value:>7.3f} "
              f"{sig.adjacency_lift:>6.2f} {decay:>8} shuf:{sdecay:>4} "
              f"{'bad' if shuf.row_decay_ok else 'ok':>5} "
              f"{time.time() - t0:>5.1f}")


if __name__ == "__main__":
    main()
