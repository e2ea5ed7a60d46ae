"""Static inspection: what a pipeline needs, produces, and contains.

Transformers declare the column sets they accept and the columns they
return, so whole pipelines can be checked before anything runs.  The
classic failure this catches: handing a re-ranker a candidate list without
the document text it scores.
"""

import tempfile

from flowrank import (
    attributes,
    build_index,
    flow,
    input_columns,
    load_index,
    output_columns,
    registry,
    subtransformers,
    validate,
)
from flowrank.dsl import elaborate, parse

CORPUS = [
    ("d1", "the quick brown fox"),
    ("d2", "the lazy dog"),
    ("d3", "quick quick fox"),
]
index_dir = tempfile.mkdtemp()
build_index(CORPUS, index_dir)
reg = registry(load_index(index_dir))

node = elaborate(parse("bm25 >> text_loader >> rescore"), reg)

# What does the whole chain need, and what comes out?
print("accepted inputs:", [sorted(s) for s in input_columns(node)])
print("outputs for {qid, query}:", sorted(output_columns(node, {"qid", "query"})))

# Both answers come from one walk that propagates columns through the tree:
# one step per tree path, in preorder, here for a fused pipeline.
fused = elaborate(parse("rrf(bm25, sdm >> wbm25) >> text_loader"), reg)
print(f"  {'path':<8} {'label':<12} {'inputs':<32} outputs")
for path, step in flow(fused, {"qid", "query"}).items():
    where = "[" + ".".join(map(str, path)) + "]"
    inputs, outputs = ", ".join(sorted(step.inputs)), ", ".join(sorted(step.outputs))
    print(f"  {where:<8} {step.label:<12} {inputs:<32} {outputs}")

# Every constituent transformer, with its tree path and settings.
for path, t in subtransformers(node):
    print(f"  [{'.'.join(map(str, path))}] {t.name}  {attributes(t)}")

# Validation propagates the input columns stage by stage and reports the
# first incompatibility with its path, what is missing, and what was there.
ok = validate(node, {"qid", "query"})
print("full chain ok:", ok.ok)

broken = elaborate(parse("bm25 >> rescore"), reg)
diag = validate(broken, {"qid", "query"})
print(diag.message)
assert diag.failing_path == (1,) and "text" in diag.missing

# Validation is pure: nothing above executed a single transformer, and no
# document data was read from the index.
