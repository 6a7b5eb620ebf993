#!/usr/bin/env bash
# Byte comparison of this tree against a base tree: a change to the library
# must not move a byte of what the pipeline, synth, score, train (each loss
# variant), gradcheck and the ablation write, and scoring and loading may
# take at most 5% more peak RSS and 1% more traced peak memory.  Exits
# non-zero at the first difference.
#
# Usage:
#     bash scripts/compare_trees.sh BASE_TREE [WORK_DIR]
#
# BASE_TREE is a checkout of the base commit (a worktree, a clone or an
# unpacked archive); WORK_DIR (default: a new temporary directory) receives
# the outputs of both trees.  Needs python3 with numpy.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE_TREE [WORK_DIR]" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
cd "$head"
echo "base $base, head $head, outputs in $work"

echo "== run the pipeline from both trees"
python scripts/run_pipeline.py --seed 0 --out "$work/head-out"
python "$base/scripts/run_pipeline.py" --seed 0 --out "$work/base-out"

echo "== compare the artifacts byte for byte"
for f in data/corpus.jsonl data/images.bin data/texts.bin data/images.manifest.json \
         data/texts.manifest.json data/table.jsonl run/history.json run/checkpoint.bin \
         report/report.json report/distance_by_level.csv; do
    cmp "$work/base-out/$f" "$work/head-out/$f"
done

# at 1000 images the traversal's start pass and walks span several blocks,
# which the pipeline's 200 images never do
echo "== compare the 1000-image report"
python scripts/run_pipeline.py --seed 0 --images 1000 --out "$work/head-out-1000"
python "$base/scripts/run_pipeline.py" --seed 0 --images 1000 --out "$work/base-out-1000"
for f in report/report.json report/distance_by_level.csv; do
    cmp "$work/base-out-1000/$f" "$work/head-out-1000/$f"
done

# the pipeline's eval does not fold; each tree evaluates the head's
# 1000-image checkpoint with --folds 5, and config.json, which echoes the
# --out path, is skipped
echo "== compare the 1000-image report with five folds"
folds_flags=(--corpus "$work/head-out-1000/data/corpus.jsonl"
             --table "$work/head-out-1000/data/table.jsonl"
             --image-features "$work/head-out-1000/data/images.manifest.json"
             --text-features "$work/head-out-1000/data/texts.manifest.json"
             --checkpoint "$work/head-out-1000/run/checkpoint.bin" --folds 5)
PYTHONPATH=src python -m descmatch.cli eval "${folds_flags[@]}" --out "$work/head-folds" > /dev/null
PYTHONPATH="$base/src" python -m descmatch.cli eval "${folds_flags[@]}" --out "$work/base-folds" > /dev/null
for f in report.json distance_by_level.csv; do
    cmp "$work/base-folds/$f" "$work/head-folds/$f"
done

# the pipeline's 200 images have neither 5-digit image ids nor a word pool
# of size 1, so synth also runs at the score-load scale, at a non-default
# spec, and with 5-digit ids, one-word strata and a sentence count that is
# no multiple of the scorer's block size; config.json echoes the --out path
# and is skipped
echo "== compare the synth output from both trees"
for args in "--images 20000 --seed 3" "--levels 6 --rare-vocab 5000 --shared-vocab 1 --seed 17" \
            "--images 10001 --rare-vocab 4 --seed 6"; do
    rm -rf "$work/head-synth" "$work/base-synth"
    PYTHONPATH=src python -m descmatch.cli synth $args --out "$work/head-synth" > /dev/null
    PYTHONPATH="$base/src" python -m descmatch.cli synth $args --out "$work/base-synth" > /dev/null
    for f in corpus.jsonl table.jsonl images.bin texts.bin images.manifest.json \
             texts.manifest.json synth_config.json; do
        cmp "$work/base-synth/$f" "$work/head-synth/$f"
    done
done

# score-load's memory: read, build_table, write and load_dataset on the
# 20 000-image synth, in a fresh process per tree; the scored tables must
# match and the head's peak RSS may exceed the base's by at most 5%
echo "== compare the peak RSS of scoring and loading"
rm -rf "$work/rss-data"
PYTHONPATH=src python -m descmatch.cli synth --images 20000 --seed 3 --out "$work/rss-data" > /dev/null
cat > "$work/score_load_rss.py" <<'EOF'
import resource, sys
from pathlib import Path

from descmatch import corpus, trainer

data, table_path = Path(sys.argv[1]), sys.argv[2]
records = corpus.read_corpus_jsonl(data / "corpus.jsonl")
_, table = corpus.build_table(records)
corpus.write_table_jsonl(table_path, table)
trainer.load_dataset(data / "corpus.jsonl", table_path, data / "images.manifest.json",
                     data / "texts.manifest.json")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
EOF
head_rss=$(PYTHONPATH=src python "$work/score_load_rss.py" "$work/rss-data" "$work/head-scored.jsonl")
base_rss=$(PYTHONPATH="$base/src" python "$work/score_load_rss.py" "$work/rss-data" "$work/base-scored.jsonl")
cmp "$work/base-scored.jsonl" "$work/head-scored.jsonl"
echo "peak RSS (KB): base $base_rss, head $head_rss"
test $((head_rss * 100)) -le $((base_rss * 105))

# the same score-and-load script with tracemalloc started before the imports:
# numpy reports its buffers to it, and unlike ru_maxrss its peak does not
# move with the allocator or the checkout.  Each stage's traced peak is
# printed; the head's overall peak may exceed the base's by at most 1%, and
# a rise names the stages that rose
echo "== compare the traced peak of each scoring and loading stage"
cat > "$work/score_load_traced.py" <<'EOF'
import tracemalloc

tracemalloc.start()

import sys
from pathlib import Path

from descmatch import corpus, trainer

data, table_path = Path(sys.argv[1]), sys.argv[2]
peaks = []


def stage(name, fn, *args):
    tracemalloc.reset_peak()
    out = fn(*args)
    peaks.append(f"{name}={tracemalloc.get_traced_memory()[1]}")
    return out


records = stage("read", corpus.read_corpus_jsonl, data / "corpus.jsonl")
_, table = stage("score", corpus.build_table, records)
stage("write", corpus.write_table_jsonl, table_path, table)
stage("load", trainer.load_dataset, data / "corpus.jsonl", table_path,
      data / "images.manifest.json", data / "texts.manifest.json")
print(" ".join(peaks))
EOF
head_traced=$(PYTHONPATH=src python "$work/score_load_traced.py" "$work/rss-data" "$work/head-traced.jsonl")
base_traced=$(PYTHONPATH="$base/src" python "$work/score_load_traced.py" "$work/rss-data" "$work/base-traced.jsonl")
cmp "$work/base-traced.jsonl" "$work/head-traced.jsonl"
python - "$base_traced" "$head_traced" <<'EOF'
import sys

base, head = (dict((name, int(peak)) for name, peak in (p.split("=") for p in arg.split()))
              for arg in sys.argv[1:])
for name in base:
    print(f"traced peak (bytes) of {name}: base {base[name]}, head {head[name]} "
          f"({head[name] / base[name] - 1:+.2%})")
if max(head.values()) * 100 > max(base.values()) * 101:
    rose = [name for name in base if head[name] * 100 > base[name] * 101]
    sys.exit(f"traced peak rose by more than 1% over the base's, in: {', '.join(rose)}")
EOF

# a config value is stored as its flag would store it, so training from a
# file that holds the pipeline's train settings, an integral "tau" among
# them, must write the flag route's checkpoint and history
echo "== train from a config file and compare with the flag route"
python - "$work/head-out/data" > "$work/train-config.json" <<'EOF'
import json, sys

data = sys.argv[1]
print(json.dumps({"corpus": f"{data}/corpus.jsonl", "table": f"{data}/table.jsonl",
                  "image_features": f"{data}/images.manifest.json",
                  "text_features": f"{data}/texts.manifest.json",
                  "variant": "full", "embed_dim": 32, "epochs": 10,
                  "batch_size": 64, "lr": 0.01, "seed": 0, "tau": 6}))
EOF
PYTHONPATH=src python -m descmatch.cli train --config "$work/train-config.json" --out "$work/config-run"
for f in checkpoint.bin history.json; do
    cmp "$work/head-out/run/$f" "$work/config-run/$f"
done

# no other gate resumes a run: the pipeline's train settings run for 5
# epochs and resumed to 10 must write the straight 10-epoch run's checkpoint
# and history, from both trees
echo "== resume the pipeline's train run from epoch 5"
resume_flags=(--corpus "$work/head-out/data/corpus.jsonl" --table "$work/head-out/data/table.jsonl"
              --image-features "$work/head-out/data/images.manifest.json"
              --text-features "$work/head-out/data/texts.manifest.json"
              --variant full --embed-dim 32 --batch-size 64 --lr 0.01 --seed 0)
PYTHONPATH=src python -m descmatch.cli train "${resume_flags[@]}" --epochs 5 \
    --out "$work/head-resume-run" > /dev/null
PYTHONPATH=src python -m descmatch.cli train "${resume_flags[@]}" --epochs 10 \
    --resume "$work/head-resume-run/checkpoint.bin" --out "$work/head-resume-run" > /dev/null
PYTHONPATH="$base/src" python -m descmatch.cli train "${resume_flags[@]}" --epochs 5 \
    --out "$work/base-resume-run" > /dev/null
PYTHONPATH="$base/src" python -m descmatch.cli train "${resume_flags[@]}" --epochs 10 \
    --resume "$work/base-resume-run/checkpoint.bin" --out "$work/base-resume-run" > /dev/null
for f in checkpoint.bin history.json; do
    cmp "$work/head-out/run/$f" "$work/head-resume-run/$f"
    cmp "$work/base-resume-run/$f" "$work/head-resume-run/$f"
done

# the pipeline trains the full variant only: the baseline and adaptive
# variants, on the pipeline's data and train settings, must write the same
# checkpoint and history from both trees
echo "== train the baseline and adaptive variants"
for variant in baseline adaptive; do
    variant_flags=(--corpus "$work/head-out/data/corpus.jsonl" --table "$work/head-out/data/table.jsonl"
                   --image-features "$work/head-out/data/images.manifest.json"
                   --text-features "$work/head-out/data/texts.manifest.json"
                   --variant "$variant" --embed-dim 32 --epochs 10 --batch-size 64 --lr 0.01 --seed 0)
    PYTHONPATH=src python -m descmatch.cli train "${variant_flags[@]}" \
        --out "$work/head-$variant-run" > /dev/null
    PYTHONPATH="$base/src" python -m descmatch.cli train "${variant_flags[@]}" \
        --out "$work/base-$variant-run" > /dev/null
    for f in checkpoint.bin history.json; do
        cmp "$work/base-$variant-run/$f" "$work/head-$variant-run/$f"
    done
done

# the pipeline's corpus has no val split, so its train run validates on the
# training set; with the last 50 images' sentences moved to val and the
# corpus rescored, train --val-split auto validates on them and must write
# the same checkpoint and history from both trees
echo "== train with a validation split"
python - "$work/head-out/data/corpus.jsonl" "$work/val-corpus.jsonl" <<'EOF'
import json, sys
from pathlib import Path

records = [json.loads(line) for line in Path(sys.argv[1]).read_text(encoding="utf-8").splitlines()]
held = set(list(dict.fromkeys(r["image_id"] for r in records))[-50:])
Path(sys.argv[2]).write_text("".join(
    json.dumps({**r, "split": "val"} if r["image_id"] in held else r, sort_keys=True) + "\n"
    for r in records), encoding="utf-8")
EOF
PYTHONPATH=src python -m descmatch.cli score --corpus "$work/val-corpus.jsonl" \
    --out "$work/val-table.jsonl" > /dev/null
val_flags=(--corpus "$work/val-corpus.jsonl" --table "$work/val-table.jsonl"
           --image-features "$work/head-out/data/images.manifest.json"
           --text-features "$work/head-out/data/texts.manifest.json" --val-split auto
           --variant full --embed-dim 32 --epochs 10 --batch-size 64 --lr 0.01 --seed 0)
PYTHONPATH=src python -m descmatch.cli train "${val_flags[@]}" --out "$work/head-val-run" > /dev/null
PYTHONPATH="$base/src" python -m descmatch.cli train "${val_flags[@]}" --out "$work/base-val-run" > /dev/null
for f in checkpoint.bin history.json; do
    cmp "$work/base-val-run/$f" "$work/head-val-run/$f"
done

# a nested extra field on the first line keeps the one-parse route away
# from the whole corpus, so score reads it line by line; the table must
# still be the pipeline's, byte for byte
echo "== score a corpus that takes the per-line parse route"
python - data/corpus.jsonl "$work/nested.jsonl" "$work/head-out" <<'EOF'
import json, sys
from pathlib import Path

lines = (Path(sys.argv[3]) / sys.argv[1]).read_text(encoding="utf-8").splitlines(True)
first = json.loads(lines[0])
first["extra"] = {"k": [1]}
lines[0] = json.dumps(first) + "\n"
Path(sys.argv[2]).write_text("".join(lines), encoding="utf-8")
EOF
PYTHONPATH=src python -m descmatch.cli score --corpus "$work/nested.jsonl" --out "$work/head-nested-table.jsonl"
PYTHONPATH="$base/src" python -m descmatch.cli score --corpus "$work/nested.jsonl" --out "$work/base-nested-table.jsonl"
cmp "$work/base-nested-table.jsonl" "$work/head-nested-table.jsonl"
cmp "$work/head-out/data/table.jsonl" "$work/head-nested-table.jsonl"

# the readers match the writers' own lines a block at a time and parse any
# other line as JSON, and the scorer tokenizes a block of texts at a time;
# the pipeline's 800 lines fill one block, so a 1100-image synth (three
# blocks) gets texts that need escapes or that lowercasing changes (İ grows
# by a code point, the Kelvin sign becomes k, a final sigma), written by the
# corpus writer, and a copy with every other block in another JSON form;
# score must write the same table from both trees and for both copies, and
# train on a table rewritten the same way must write the same checkpoint and
# history
echo "== score and train on escaped and rewritten lines"
rm -rf "$work/blocks-data"
PYTHONPATH=src python -m descmatch.cli synth --images 1100 --seed 5 --out "$work/blocks-data" > /dev/null
PYTHONPATH=src python - "$work/blocks-data" <<'EOF'
import json, sys
from pathlib import Path

from descmatch import corpus

data = Path(sys.argv[1])


def rewrite(path, out, head=0):
    """Every other block of the file's lines, after ``head`` lines, with its
    keys in reverse order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    block = corpus._BLOCK_RECORDS
    out.write_text("".join(
        line + "\n" if k < head or (k - head) // block % 2 == 0
        else json.dumps(dict(reversed(json.loads(line).items()))) + "\n"
        for k, line in enumerate(lines)), encoding="utf-8")


cols = corpus.read_corpus_columns(data / "corpus.jsonl")
marks = ['café "quoted"', "back\\slash 東京", "tab\there \U0001f600",
         "Upper CASE İstanbul \u212a ΟΔΟΣ Straße"]
cols.texts = [f"{text} {marks[k % 4]}" for k, text in enumerate(cols.texts)]
corpus.write_corpus_columns(data / "escaped.jsonl", cols)
rewrite(data / "escaped.jsonl", data / "mixed.jsonl")
rewrite(data / "table.jsonl", data / "mixed-table.jsonl", head=1)
EOF
for variant in escaped mixed; do
    PYTHONPATH=src python -m descmatch.cli score --corpus "$work/blocks-data/$variant.jsonl" \
        --out "$work/head-$variant-table.jsonl" > /dev/null
    PYTHONPATH="$base/src" python -m descmatch.cli score --corpus "$work/blocks-data/$variant.jsonl" \
        --out "$work/base-$variant-table.jsonl" > /dev/null
    cmp "$work/base-$variant-table.jsonl" "$work/head-$variant-table.jsonl"
done
cmp "$work/head-escaped-table.jsonl" "$work/head-mixed-table.jsonl"
mixed_flags=(--corpus "$work/blocks-data/corpus.jsonl" --table "$work/blocks-data/mixed-table.jsonl"
             --image-features "$work/blocks-data/images.manifest.json"
             --text-features "$work/blocks-data/texts.manifest.json"
             --variant full --embed-dim 16 --epochs 2 --batch-size 64 --lr 0.01 --seed 0)
PYTHONPATH=src python -m descmatch.cli train "${mixed_flags[@]}" --out "$work/head-mixed-run" > /dev/null
PYTHONPATH="$base/src" python -m descmatch.cli train "${mixed_flags[@]}" --out "$work/base-mixed-run" > /dev/null
for f in checkpoint.bin history.json; do
    cmp "$work/base-mixed-run/$f" "$work/head-mixed-run/$f"
done

# the gradient audit prints every loss's worst error to four digits, so a
# loss or gradient whose bits move shows in its stdout
echo "== compare the gradcheck output"
PYTHONPATH=src python -m descmatch.cli gradcheck --seed 0 --trials 20 > "$work/head-gradcheck.txt"
PYTHONPATH="$base/src" python -m descmatch.cli gradcheck --seed 0 --trials 20 > "$work/base-gradcheck.txt"
cmp "$work/base-gradcheck.txt" "$work/head-gradcheck.txt"

echo "== run the ablation from both trees"
python scripts/run_ablation.py --seeds 0 1 --out "$work/head-ablation"
python "$base/scripts/run_ablation.py" --seeds 0 1 --out "$work/base-ablation"

# wall-clock seconds and the out path are the only fields allowed to differ
echo "== compare the ablation results"
python - "$work/base-ablation/ablation.json" "$work/head-ablation/ablation.json" <<'EOF'
import json, sys

def load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["config"]["out"]
    for rows in doc["runs"].values():
        for row in rows:
            del row["seconds"]
    return json.dumps(doc, sort_keys=True)

base, head = map(load, sys.argv[1:])
sys.exit(0 if base == head else "ablation.json differs from the base commit")
EOF
echo "every output matches the base tree"
