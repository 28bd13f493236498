"""Expected outputs the benchmark checks against.

``TABLE2`` and ``PPL`` are copies of the committed llama-3.1-8b-sim cells
of Table 2 (task accuracy, %) and Table 3 (wiki2-sim perplexity at seq
128), so the benchmark reads nothing under ``benchmarks/results/``.
``BATCH_CORRECT`` splits each Table 2 cell into the correct answers of its
three 16-question harness batches; the benchmark"s tests assert that the
split sums back to the cell. ``FLEET_DIGEST`` is the SHA-256 over every
response"s ``(request_id, ttft_s, tpot_s, finish_s)`` of each fleet at
``DEFAULT_SEED``; other seeds get the structural checks only.
"""

RECIPES = ("baseline", "mxfp4", "mxfp4+", "mxfp4++", "mxfp6+", "mxfp8+")
TASK_ORDER = ("arc_easy-sim", "arc_challenge-sim", "lambada-sim", "college_cs-sim", "intl_law-sim", "jurisprudence-sim")
N_QUESTIONS = 48
BATCH_QUESTIONS = 16
N_BATCHES = N_QUESTIONS // BATCH_QUESTIONS
DEFAULT_SEED = 0

TABLE2 = {
    "baseline": {
        "arc_easy-sim": 100.0,
        "arc_challenge-sim": 81.25,
        "lambada-sim": 54.166666666666664,
        "college_cs-sim": 70.83333333333334,
        "intl_law-sim": 89.58333333333334,
        "jurisprudence-sim": 81.25,
    },
    "mxfp4": {
        "arc_easy-sim": 100.0,
        "arc_challenge-sim": 81.25,
        "lambada-sim": 47.91666666666667,
        "college_cs-sim": 54.166666666666664,
        "intl_law-sim": 85.41666666666666,
        "jurisprudence-sim": 75.0,
    },
    "mxfp4+": {
        "arc_easy-sim": 100.0,
        "arc_challenge-sim": 81.25,
        "lambada-sim": 45.83333333333333,
        "college_cs-sim": 66.66666666666666,
        "intl_law-sim": 89.58333333333334,
        "jurisprudence-sim": 79.16666666666666,
    },
    "mxfp4++": {
        "arc_easy-sim": 100.0,
        "arc_challenge-sim": 83.33333333333334,
        "lambada-sim": 45.83333333333333,
        "college_cs-sim": 70.83333333333334,
        "intl_law-sim": 87.5,
        "jurisprudence-sim": 79.16666666666666,
    },
    "mxfp6+": {
        "arc_easy-sim": 100.0,
        "arc_challenge-sim": 83.33333333333334,
        "lambada-sim": 56.25,
        "college_cs-sim": 75.0,
        "intl_law-sim": 89.58333333333334,
        "jurisprudence-sim": 81.25,
    },
    "mxfp8+": {
        "arc_easy-sim": 100.0,
        "arc_challenge-sim": 81.25,
        "lambada-sim": 54.166666666666664,
        "college_cs-sim": 70.83333333333334,
        "intl_law-sim": 89.58333333333334,
        "jurisprudence-sim": 81.25,
    },
}

PPL = {
    "baseline": 5.670758404131934,
    "mxfp4": 9.420680059284368,
    "mxfp4+": 6.995556639211275,
    "mxfp4++": 6.464042339040037,
    "mxfp6+": 5.757024564476638,
    "mxfp8+": 5.679464994942912,
}

BATCH_CORRECT = {
    "baseline": {
        "arc_easy-sim": (16, 16, 16),
        "arc_challenge-sim": (15, 13, 11),
        "lambada-sim": (6, 8, 12),
        "college_cs-sim": (13, 12, 9),
        "intl_law-sim": (15, 15, 13),
        "jurisprudence-sim": (12, 16, 11),
    },
    "mxfp4": {
        "arc_easy-sim": (16, 16, 16),
        "arc_challenge-sim": (13, 12, 14),
        "lambada-sim": (6, 6, 11),
        "college_cs-sim": (10, 7, 9),
        "intl_law-sim": (14, 14, 13),
        "jurisprudence-sim": (12, 15, 9),
    },
    "mxfp4+": {
        "arc_easy-sim": (16, 16, 16),
        "arc_challenge-sim": (15, 12, 12),
        "lambada-sim": (5, 6, 11),
        "college_cs-sim": (12, 12, 8),
        "intl_law-sim": (15, 15, 13),
        "jurisprudence-sim": (13, 15, 10),
    },
    "mxfp4++": {
        "arc_easy-sim": (16, 16, 16),
        "arc_challenge-sim": (15, 13, 12),
        "lambada-sim": (5, 6, 11),
        "college_cs-sim": (12, 12, 10),
        "intl_law-sim": (15, 14, 13),
        "jurisprudence-sim": (13, 15, 10),
    },
    "mxfp6+": {
        "arc_easy-sim": (16, 16, 16),
        "arc_challenge-sim": (15, 13, 12),
        "lambada-sim": (8, 7, 12),
        "college_cs-sim": (13, 13, 10),
        "intl_law-sim": (15, 15, 13),
        "jurisprudence-sim": (12, 16, 11),
    },
    "mxfp8+": {
        "arc_easy-sim": (16, 16, 16),
        "arc_challenge-sim": (15, 13, 11),
        "lambada-sim": (6, 8, 12),
        "college_cs-sim": (13, 12, 9),
        "intl_law-sim": (15, 15, 13),
        "jurisprudence-sim": (12, 16, 11),
    },
}

FLEET_DIGEST = "ed69b8646dfa3bcc2b04b22390d238d7cad0ced7f7482e1e402b643a304a1806"
