"""Write reference.json: sampled values of the reference recording's
spectrograms, which the extract workload checks every repetition against.

    python3 perfbench/record_reference.py

The committed file was written at the seed commit of the benchmark
(1f8a28c); rewriting it on later code would hide any change in the
front end's output, so do so only on purpose and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import workloads
from worker import ROOT, import_lungsound


def main():
    ls = import_lungsound()
    work = os.path.join(ROOT, ".perfbench", "work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    corpus = workloads.make_corpus(ls, work, workloads.REFERENCE_SEED,
                                   (workloads.REFERENCE_CLASS,))
    wavelet = ls["dsp"].WaveletSpec(family="bump")
    sizes = {"event": (128, 512), "record": (140, 1024)}
    rng = np.random.default_rng(workloads.REFERENCE_SEED)
    out = {"wavelet": "bump", "sizes": sizes, "samples": {},
           "audio_sha256": {e.audio: workloads.audio_digest(
               os.path.join(work, e.audio)) for e in corpus.entries}}
    for level in workloads.LEVELS:
        fdir = os.path.join(work, "features", level)
        index = ls["cli"].extract_features(corpus, wavelet, sizes[level],
                                           level, fdir)
        for sample in index["samples"]:
            spec = ls["dsp"].load_spectrogram(os.path.join(fdir,
                                                           sample["cache"]))
            out["samples"][sample["id"]] = workloads.reference_entry(
                spec.values, rng)
    shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
