#!/usr/bin/env bash
# Byte comparison of this tree against a base tree: a change to the library
# must not move a byte of what the pipeline, synth, score, train (each loss
# variant, and from f32 feature files), eval, gradcheck, the config echoes and
# the ablation write, and scoring and loading may take at most 5% more peak
# RSS and 1% more traced peak memory.  Exits non-zero at the first
# difference.
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

echo "== prepare the inputs that only the head writes"

# the val and nested corpora are rewritten from the pipeline's corpus, which
# its first step writes with this synth call
rm -rf "$work/data"
PYTHONPATH=src python -m descmatch.cli synth --seed 0 --out "$work/data" > /dev/null

# a config value is stored as its flag would store it, so training from a
# file that holds the pipeline's train settings, an integral "tau" among
# them, must write the flag route's checkpoint and history
python - "$work/head/pipeline/data" > "$work/train-config.json" <<'EOF'
import json, sys

data = sys.argv[1]
print(json.dumps({"corpus": f"{data}/corpus.jsonl", "table": f"{data}/table.jsonl",
                  "image_features": f"{data}/images.manifest.json",
                  "text_features": f"{data}/texts.manifest.json",
                  "variant": "full", "embed_dim": 32, "epochs": 10,
                  "batch_size": 64, "lr": 0.01, "seed": 0, "tau": 6}))
EOF

# the pipeline's corpus has no val split, so its train run validates on the
# training set; with the last 50 images' sentences moved to val and the
# corpus rescored, train --val-split auto validates on them
python - "$work/data/corpus.jsonl" "$work/val-corpus.jsonl" <<'EOF'
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

# the pipeline's corpus with the last caption of every third image removed,
# rescored: images of three and of four texts give train's batches owner
# arrays of many shapes, so the owner checks run on many cache misses
python - "$work/data/corpus.jsonl" "$work/ragged-corpus.jsonl" <<'EOF'
import json, sys
from pathlib import Path

records = [json.loads(line) for line in Path(sys.argv[1]).read_text(encoding="utf-8").splitlines()]
images = list(dict.fromkeys(r["image_id"] for r in records))
last = {r["image_id"]: r["id"] for r in records}
cut = {last[i] for i in images[2::3]}
Path(sys.argv[2]).write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                     for r in records if r["id"] not in cut), encoding="utf-8")
EOF
PYTHONPATH=src python -m descmatch.cli score --corpus "$work/ragged-corpus.jsonl" \
    --out "$work/ragged-table.jsonl" > /dev/null

# a nested extra field on the first line keeps the one-parse route away
# from the whole corpus, so score reads it line by line
python - data/corpus.jsonl "$work/nested.jsonl" "$work" <<'EOF'
import json, sys
from pathlib import Path

lines = (Path(sys.argv[3]) / sys.argv[1]).read_text(encoding="utf-8").splitlines(True)
first = json.loads(lines[0])
first["extra"] = {"k": [1]}
lines[0] = json.dumps(first) + "\n"
Path(sys.argv[2]).write_text("".join(lines), encoding="utf-8")
EOF

# the readers match the writers' own lines a block at a time and parse any
# other line as JSON, and the scorer tokenizes a block of texts at a time;
# the pipeline's 800 lines fill one block, so a 1100-image synth (three
# blocks) gets texts that need escapes or that lowercasing changes (İ grows
# by a code point, the Kelvin sign becomes k, a final sigma), written by the
# corpus writer, and a copy with every other block in another JSON form,
# and its table is rewritten the same way
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

# the head's pipeline data and train settings, and the 1000-image
# pipeline's data and checkpoint, which later rows read
pipe=$work/head/pipeline/data
feats=(--image-features "$pipe/images.manifest.json" --text-features "$pipe/texts.manifest.json")
fit=(--corpus "$pipe/corpus.jsonl" --table "$pipe/table.jsonl" "${feats[@]}"
     --embed-dim 32 --batch-size 64 --lr 0.01 --seed 0)
p1k=$work/head/pipeline-1000
blocks=$work/blocks-data
synth_files="corpus.jsonl table.jsonl images.bin texts.bin images.manifest.json
             texts.manifest.json synth_config.json"

# One row per byte gate: name | trees | reference | files | command.  The
# command runs from each tree named, in $work/TREE/NAME, with $tree the
# tree, $out that directory (emptied first), PYTHONPATH the tree's src and
# stdout written to $out/stdout.txt; dm runs the CLI.  Each file is
# compared between the base's and the head's $out when both trees run, and
# between $work/REFERENCE and the head's $out when a reference is named.
# Rows run in order, so a row may read what an earlier row's head wrote.
# config.json echoes the paths it was given, so only the echo row, whose
# paths are relative, compares it.
gates=(
    'pipeline | base head | |
        data/corpus.jsonl data/images.bin data/texts.bin data/images.manifest.json
        data/texts.manifest.json data/table.jsonl run/history.json run/checkpoint.bin
        report/report.json report/distance_by_level.csv
        | python "$tree/scripts/run_pipeline.py" --seed 0 --out "$out"'
    # at 1000 images the traversal's start pass and walks span several
    # blocks, which the pipeline's 200 images never do
    'pipeline-1000 | base head | | report/report.json report/distance_by_level.csv
        | python "$tree/scripts/run_pipeline.py" --seed 0 --images 1000 --out "$out"'
    # the pipeline's eval does not fold; each tree evaluates the head's
    # 1000-image checkpoint with --folds 5
    'folds | base head | | report.json distance_by_level.csv
        | dm eval --corpus "$p1k/data/corpus.jsonl" --table "$p1k/data/table.jsonl" \
            --image-features "$p1k/data/images.manifest.json" \
            --text-features "$p1k/data/texts.manifest.json" \
            --checkpoint "$p1k/run/checkpoint.bin" --folds 5 --out "$out"'
    # the same checkpoint on that corpus with its lines shuffled: texts
    # interleaved across images, so the rank count gathers them into owner
    # order, and 3 uneven folds of 334, 333 and 333 images
    'folds-interleaved | base head | | report.json distance_by_level.csv
        | shuffle_lines "$p1k/data/corpus.jsonl" "$out/corpus.jsonl"; \
          dm eval --corpus "$out/corpus.jsonl" --table "$p1k/data/table.jsonl" \
            --image-features "$p1k/data/images.manifest.json" \
            --text-features "$p1k/data/texts.manifest.json" \
            --checkpoint "$p1k/run/checkpoint.bin" --folds 3 --out "$out"'
    # every other eval walks 50 stations; the same checkpoint also walks
    # only the two endpoints, and 51 stations, whose midpoint t = 1/2 is a
    # station
    'points | base head | | points-2/report.json points-51/report.json
        | for n in 2 51; do \
            dm eval --corpus "$p1k/data/corpus.jsonl" --table "$p1k/data/table.jsonl" \
              --image-features "$p1k/data/images.manifest.json" \
              --text-features "$p1k/data/texts.manifest.json" \
              --checkpoint "$p1k/run/checkpoint.bin" --points "$n" --out "$out/points-$n"; \
          done'
    # the pipeline's 200 images have neither 5-digit image ids nor a word
    # pool of size 1, so synth also runs at the score-load scale, at a
    # non-default spec, and with 5-digit ids, one-word strata and a sentence
    # count that is no multiple of the scorer's block size
    'synth-20000 | base head | | $synth_files | dm synth --images 20000 --seed 3 --out "$out"'
    'synth-levels-6 | base head | | $synth_files
        | dm synth --levels 6 --rare-vocab 5000 --shared-vocab 1 --seed 17 --out "$out"'
    'synth-10001 | base head | | $synth_files
        | dm synth --images 10001 --rare-vocab 4 --seed 6 --out "$out"'
    'config | head | head/pipeline/run | checkpoint.bin history.json
        | dm train --config "$work/train-config.json" --out "$out"'
    # no other gate resumes a run: the pipeline's train settings run for 5
    # epochs and resumed to 10 must write the straight 10-epoch run's bytes
    'resume | base head | head/pipeline/run | checkpoint.bin history.json
        | dm train "${fit[@]}" --variant full --epochs 5 --out "$out"; \
          dm train "${fit[@]}" --variant full --epochs 10 --resume "$out/checkpoint.bin" \
              --out "$out"'
    # the pipeline trains the full variant only
    'baseline | base head | | checkpoint.bin history.json
        | dm train "${fit[@]}" --variant baseline --epochs 10 --out "$out"'
    'adaptive | base head | | checkpoint.bin history.json
        | dm train "${fit[@]}" --variant adaptive --epochs 10 --out "$out"'
    'val | base head | | checkpoint.bin history.json
        | dm train --corpus "$work/val-corpus.jsonl" --table "$work/val-table.jsonl" \
            "${feats[@]}" --val-split auto --variant full --embed-dim 32 --epochs 10 \
            --batch-size 64 --lr 0.01 --seed 0 --out "$out"'
    # every image of the other train rows owns four texts
    'ragged | base head | | checkpoint.bin history.json
        | dm train --corpus "$work/ragged-corpus.jsonl" --table "$work/ragged-table.jsonl" \
            "${feats[@]}" --variant full --embed-dim 32 --epochs 10 --batch-size 64 \
            --lr 0.01 --seed 0 --out "$out"'
    # no other row reads an f32 feature file: the pipeline's features
    # narrowed to f32 (to_f32), trained on for 2 epochs and evaluated
    'f32 | base head | | checkpoint.bin history.json report/report.json
        | for role in images texts; do to_f32 "$pipe/$role" "$out/$role"; done; \
          narrow=(--corpus "$pipe/corpus.jsonl" --table "$pipe/table.jsonl" \
                  --image-features "$out/images.manifest.json" \
                  --text-features "$out/texts.manifest.json"); \
          dm train "${narrow[@]}" --variant full --embed-dim 32 --epochs 2 --batch-size 64 \
              --lr 0.01 --seed 0 --out "$out"; \
          dm eval "${narrow[@]}" --checkpoint "$out/checkpoint.bin" --out "$out/report"'
    # the per-line route must still write the pipeline's table
    'nested | base head | head/pipeline/data | table.jsonl
        | dm score --corpus "$work/nested.jsonl" --out "$out/table.jsonl"'
    'escaped | base head | | table.jsonl
        | dm score --corpus "$blocks/escaped.jsonl" --out "$out/table.jsonl"'
    'mixed | base head | head/escaped | table.jsonl
        | dm score --corpus "$blocks/mixed.jsonl" --out "$out/table.jsonl"'
    'mixed-train | base head | | checkpoint.bin history.json
        | dm train --corpus "$blocks/corpus.jsonl" --table "$blocks/mixed-table.jsonl" \
            --image-features "$blocks/images.manifest.json" \
            --text-features "$blocks/texts.manifest.json" --variant full --embed-dim 16 \
            --epochs 2 --batch-size 64 --lr 0.01 --seed 0 --out "$out"'
    # synth, train and eval each echo their config; run from inside $out
    # with relative paths, the echoes hold no path of the tree or $work
    'echo | base head | | data/config.json run/config.json report/config.json
        | cd "$out"; dm synth --images 20 --seed 0 --out data; \
          dm train --corpus data/corpus.jsonl --table data/table.jsonl \
            --image-features data/images.manifest.json \
            --text-features data/texts.manifest.json --embed-dim 8 --epochs 2 \
            --batch-size 16 --out run; \
          dm eval --corpus data/corpus.jsonl --table data/table.jsonl \
            --image-features data/images.manifest.json \
            --text-features data/texts.manifest.json --checkpoint run/checkpoint.bin \
            --folds 2 --out report'
    # the gradient audit prints every loss's worst error to four digits, so
    # a loss or gradient whose bits move shows in its stdout
    'gradcheck | base head | | stdout.txt | dm gradcheck --seed 0 --trials 20'
)

dm() { python -m descmatch.cli "$@"; }

# the lines of file $1 written to $2 in a fixed shuffled order
shuffle_lines() {
    python - "$1" "$2" <<'EOF'
import random, sys
from pathlib import Path

lines = Path(sys.argv[1]).read_text(encoding="utf-8").splitlines(True)
random.Random(0).shuffle(lines)
Path(sys.argv[2]).write_text("".join(lines), encoding="utf-8")
EOF
}

# the f64 feature file at stem $1 written at stem $2 as f32: the manifest
# with dtype "f32" beside a little-endian float32 binary
to_f32() {
    python - "$1" "$2" <<'EOF'
import json, sys
from pathlib import Path

import numpy as np

src, dst = sys.argv[1:]
manifest = json.loads(Path(f"{src}.manifest.json").read_text(encoding="utf-8"))
Path(f"{dst}.manifest.json").write_text(json.dumps({**manifest, "dtype": "f32"}, sort_keys=True)
                                        + "\n", encoding="utf-8")
np.fromfile(f"{src}.bin", dtype="<f8").astype("<f4").tofile(f"{dst}.bin")
EOF
}

for row in "${gates[@]}"; do
    IFS='|' read -r -d '' name trees ref files cmd <<< "$row" || true
    name=${name//[[:space:]]/} ref=${ref//[[:space:]]/}
    echo "== $name"
    for tree_name in $trees; do
        tree=${!tree_name} out=$work/$tree_name/$name
        rm -rf "$out"
        mkdir -p "$out"
        (export PYTHONPATH=$tree/src; eval "$cmd") > "$out/stdout.txt"
    done
    eval "files=($files)"
    for f in "${files[@]}"; do
        [[ $trees == *base* ]] && cmp "$work/base/$name/$f" "$work/head/$name/$f"
        [ -z "$ref" ] || cmp "$work/$ref/$f" "$work/head/$name/$f"
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
