"""The paper's reported numbers/claims, one entry per artifact.

Figures 3–11 are printed as line charts in the paper; the prose quantifies
the key points.  These are the claims EXPERIMENTS.md diffs our measured
tables against (shape, ordering, ratios — not absolute values, since our
substrate is a laptop-scale simulator over synthetic graphs).
"""

PAPER_CLAIMS = {
    "t1": [
        "Hashing: Low time / Low quality; DBH: Low/Low; Mint: Medium/Medium;"
        " Greedy: High/High; HDRF: High/High; CLUGP: Low time / High quality.",
    ],
    "t3": [
        "UK 19M vertices / 0.3B edges; Arabic 22M/0.6B; WebBase 118M/1.0B;"
        " IT 41M/1.5B; Twitter 41M/1.4B. All power-law.",
    ],
    "f3": [
        "CLUGP has the lowest RF on all 4 web graphs at every k.",
        "Arabic, k 4→256: CLUGP RF grows ~1.5×, Hashing ~10×.",
        "Arabic, k=256: CLUGP RF ≈ ½ of HDRF (the best baseline).",
        "IT, k=256: up to 10× RF decrease vs the worst baseline.",
        "Heuristics (HDRF/Greedy) use 8–10× CLUGP's space; Hashing 0;"
        " Mint < CLUGP (CLUGP is O(2|V|), Mint O(batch·threads)).",
        "HDRF/Greedy/Mint runtime grows steeply with k (IT k=256: HDRF"
        " ≈35,000 s); CLUGP & hashing insensitive (CLUGP 1,162→1,869 s"
        " from k=4→256, ≈2–3× hashing).",
    ],
    "f4": [
        "Twitter: CLUGP RF slightly higher than HDRF,",
        "but CLUGP total task runtime (partition + pagerank) is much lower.",
    ],
    "f5": [
        "UK samples 10K→60M edges at fixed k: CLUGP RF +20%, HDRF +80%;"
        " CLUGP best at every size.",
    ],
    "f8": [
        "CLUGP lowest computation and communication time in all tests;"
        " hashing worst, gap grows with data volume.",
        "IT: CLUGP ≈40% of Greedy's (2nd best) communication, ≈50% of its"
        " computation; heuristics/Mint 50–100% above CLUGP.",
        "RTT 10→100 ms: CLUGP remains fastest and most stable.",
    ],
    "f9": [
        "RF(CLUGP) < RF(CLUGP-S) for all k; CLUGP-S rises sharply with k"
        " while CLUGP stays stable.",
        "CLUGP ≈60–70% lower RF than CLUGP-G (greedy instead of game).",
    ],
    "f10": [
        "Threads 8→32: computation 1091→429 s (good acceleration).",
        "CLUGP total runtime ≈60% less than Mint-32-threads; CLUGP with 8"
        " threads ≈45% less than Mint with 32.",
        "Runtime insensitive to batch size (slight increase with batch).",
    ],
    "f11": [
        "(a) RF slightly decreases as allowed imbalance τ increases.",
        "(b) RF vs relative weight is U-shaped with a wide flat valley:"
        " within ~10% for w∈[0.3,0.7]; extremes (0.1, 0.9) are worse.",
    ],
}
