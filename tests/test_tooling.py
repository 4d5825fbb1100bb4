"""Code that nothing uses gets deleted: a static scan of the package source.

Each module of src/dticalib is parsed with the standard-library ast. An
imported name that its module never references fails, as does a top-level
private def (a function or class named _x) that no code in the package
references outside its own body. The package __init__ is exempt from the
import check, because its imports are the public namespace. A public
module-level function or public method fails when neither the package,
outside its own body, nor scripts/ references its name, and the README
never names it; dunders are exempt.

One write policy: in pipeline.py, only the top-level function run calls
mkdir or write_manifest, so a stage cannot make out_dir or refresh the
manifest before its work is done.

One keying rule: only rng.py builds a SeedSequence, Generator, Philox or
default_rng, so every stream is keyed there and nowhere else.

One eigensolver: only tensor.py calls or imports numpy's eig, eigh, eigvals or
eigvalsh, so every eigensystem is computed by eigh3_batch, where the count of
decompositions per row can be seen.

One tensor format: only tensor.py (the loose rows it hands LAPACK, the signal
model) and simulation.py (rotations) call elements_to_matrices, so tensors
cross every other module boundary as (n, 6) element rows.

One dropout decision: in src/dticalib only MlpSpec.__post_init__ (the check),
TwoBranchMlp.make_sample_masks (the draw and its inverted scale) and config's
SCHEMA (the default) read .dropout_rate, so the layer kernels, the loss and
the sampler take masks and no rate.

One set of draws in the model: in mlp.py a generator or bit generator is
drawn from only in TwoBranchMlp.__init__ (the initial weights),
TwoBranchMlp.make_sample_masks (the dropout masks) and train (the split and
the shuffles), so MC-dropout prediction draws its masks only through
make_sample_masks.

One fallback solver: in fitting.py only _qr_solve_batch (R of a weighted
design's QR) and fit_ols_batch (R^-1 Q^T of the design) read np.linalg.solve,
so a row the Cholesky fails takes the QR path and no Gram matrix goes to
LAPACK.

One read for scoring: run_calibrate, run_evaluate and run_curves reach no
read_dataset call, through any pipeline.py or dataio.py function they call,
so the scoring stages read a dataset's truth block and skip its signals.

One loader for scoring: in pipeline.py only _load_scored (and
_load_table_for_eval, which evaluate gives it as its reader) calls
read_predictions or _check_truth_digest, so every table a scoring stage
scores is read and checked in one place, in one order.

One file hasher: in src/dticalib and scripts/ only write_manifest calls
sha256_file, so a stage hashes a file only where the manifest decides that
its recorded digest cannot be kept.

One row axis: fitting.py, tensor.py and bootstrap.py use no @, matmul, dot,
inner or tensordot, and no einsum with an optimize argument. Those may hand a
batch to BLAS, whose blocking can make one row's result depend on the rows
around it; the elementwise kernels there give each row bitwise what it gets
alone, which the chunk-size and voxel-order contract rests on.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dticalib"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list:
    """(name, line) of each name an import binds that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return [(name, line) for name, line in bound if name not in read]


def name_counts(statements) -> Counter:
    """How often each name is read as a variable or attribute, or imported by
    name, in statements."""
    counts = Counter()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                counts.update(alias.name for alias in node.names)
    return counts


def unreferenced_private_defs(trees: dict) -> list:
    """(module, name, line) of each top-level _private def or class of the
    {module: tree} set that no statement but its own references."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            others = (s for t in trees.values() for s in t.body if s is not node)
            if node.name not in name_counts(others):
                found.append((module, node.name, node.lineno))
    return found


def unreferenced_public_defs(trees: dict, scripts: list, readme: str) -> list:
    """(module, name, line) of each public module-level function or public
    method of the {module: tree} set that no code of trees or scripts
    references outside its own body, and that readme never names."""
    counts = name_counts([*trees.values(), *scripts])
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{d.name}", d) for d in node.body if isinstance(d, FUNCTIONS)]
            else:
                continue
            for name, d in defs:
                if d.name.startswith("_"):  # private, or a dunder
                    continue
                outside = counts[d.name] - name_counts([d])[d.name]
                if not outside and not re.search(rf"\b{d.name}\b", readme):
                    found.append((module, name, d.lineno))
    return found


def called_name(call: ast.Call):
    """The name a call calls: f of f(...) and of obj.f(...); None for any other callee."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def calls_outside(tree: ast.Module, names, *allowed: str) -> list:
    """(function, line) of each call in tree of one of names outside the
    top-level functions allowed; a call at module level reads <module>."""
    return [(getattr(node, "name", "<module>"), call.lineno)
            for node in tree.body if not (isinstance(node, FUNCTIONS) and node.name in allowed)
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and called_name(call) in names]


def writes_outside_run(tree: ast.Module) -> list:
    """(function, line) of each mkdir or write_manifest call in tree outside
    the top-level function run."""
    return calls_outside(tree, ("mkdir", "write_manifest"), "run")


STREAM_BUILDERS = ("SeedSequence", "Generator", "Philox", "default_rng")


def stream_builds(tree: ast.Module) -> list:
    """(name, line) of each call in tree that builds a random stream or its seed."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [(called_name(c), c.lineno) for c in calls if called_name(c) in STREAM_BUILDERS]


EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")


def eigensolves(tree: ast.Module) -> list:
    """(name, line) of each call in tree to, or import of, an eigensolver of
    EIGENSOLVERS, in line order."""
    found = [(called_name(node), node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and called_name(node) in EIGENSOLVERS]
    found += [(alias.name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name in EIGENSOLVERS]
    return sorted(found, key=lambda f: (f[1], f[0]))


MATRIX_MODULES = ("tensor.py", "simulation.py")


def matrix_builds(tree: ast.Module) -> list:
    """(name, line) of each elements_to_matrices call in tree, in line order."""
    return sorted((called_name(node), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and called_name(node) == "elements_to_matrices")


RATE_READERS = [
    ("mlp.py", "MlpSpec.__post_init__"), ("mlp.py", "TwoBranchMlp.make_sample_masks"),
    ("config.py", "SCHEMA"),
]


def scoped_statements(tree: ast.Module) -> list:
    """(scope, node) of each top-level statement of tree, a class's split into
    its members. The scope is Class.method for a method, the function for a
    top-level function, the name a module-level assignment binds, or else
    <module>."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{d.name}" if isinstance(d, FUNCTIONS) else node.name, d)
                      for d in node.body]
        elif isinstance(node, FUNCTIONS):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            found.append((getattr(target, "id", "<module>"), node))
        else:
            found.append(("<module>", node))
    return found


def attribute_reads(tree: ast.Module, attr: str) -> list:
    """(scope, line) of each read of .attr in tree, in line order, scoped as
    scoped_statements scopes them."""
    found = [(scope, read.lineno) for scope, part in scoped_statements(tree)
             for read in ast.walk(part)
             if isinstance(read, ast.Attribute) and read.attr == attr
             and isinstance(read.ctx, ast.Load)]
    return sorted(found, key=lambda f: (f[1], f[0]))


# every public method of a Generator, and the raw words of its bit generator
GENERATOR_DRAWS = {n for n in dir(np.random.Generator)
                   if not n.startswith("_") and n != "bit_generator"} | {"random_raw"}
DRAW_SCOPES = ["TwoBranchMlp.__init__", "TwoBranchMlp.make_sample_masks", "train"]


def generator_draws(tree: ast.Module) -> list:
    """(scope, line) of each method call x.f(...) in tree with f in
    GENERATOR_DRAWS, in line order, scoped as scoped_statements scopes them."""
    found = [(scope, call.lineno) for scope, part in scoped_statements(tree)
             for call in ast.walk(part)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
             and call.func.attr in GENERATOR_DRAWS]
    return sorted(found, key=lambda f: (f[1], f[0]))


SOLVE_READERS = ["_qr_solve_batch", "fit_ols_batch"]

ROW_AXIS_MODULES = ("fitting.py", "tensor.py", "bootstrap.py")
BLAS_PRODUCTS = ("matmul", "dot", "inner", "tensordot")


def blas_products(tree: ast.Module) -> list:
    """(name, line) of each @ or @= in tree, each call of a product of BLAS_PRODUCTS,
    and each einsum call given optimize (or **kwargs, which may carry it), in line
    order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(("@", node.lineno))
        elif isinstance(node, ast.Call):
            name = called_name(node)
            optimized = name == "einsum" and any(k.arg in ("optimize", None) for k in node.keywords)
            if name in BLAS_PRODUCTS or optimized:
                found.append((name, node.lineno))
    return sorted(found, key=lambda f: (f[1], f[0]))


def function_calls(trees) -> dict:
    """{name: [(called name, line), ...]} of each top-level function of trees,
    the defs nested in it included."""
    return {node.name: [(called_name(c), c.lineno) for c in ast.walk(node)
                        if isinstance(c, ast.Call)]
            for tree in trees for node in tree.body if isinstance(node, FUNCTIONS)}


def reached_calls(calls: dict, start: str, target: str) -> list:
    """(function, line) of each call of target in start or in a function of
    calls that start reaches through them, in order."""
    seen, todo, found = set(), [start], []
    while todo:
        name = todo.pop()
        if name in seen or name not in calls:
            continue
        seen.add(name)
        for callee, line in calls[name]:
            if callee == target:
                found.append((name, line))
            todo.append(callee)
    return sorted(found)


SCORING_STAGES = ("run_calibrate", "run_evaluate", "run_curves")
SCORED_LOADERS = ("_load_scored", "_load_table_for_eval")
SCORED_READS = ("read_predictions", "_check_truth_digest")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


def test_every_private_def_is_referenced():
    assert unreferenced_private_defs({p.name: parse(p) for p in MODULES}) == []


def test_every_public_def_is_used():
    trees = {p.name: parse(p) for p in MODULES}
    scripts = [parse(p) for p in SCRIPTS]
    readme = (ROOT / "README.md").read_text()
    assert unreferenced_public_defs(trees, scripts, readme) == []


def test_scan_finds_an_unused_import_and_an_unreferenced_def():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from json import dumps, loads\n"
        "def _dead():\n"
        "    return _dead(os.sep)\n"  # a def that only calls itself is still dead
        "def _live():\n"
        "    return loads('1')\n"
        "VALUE = _live()\n"
    )
    assert unused_imports(tree) == [("dumps", 3)]
    assert unreferenced_private_defs({"m.py": tree}) == [("m.py", "_dead", 4)]


def test_scan_finds_an_unused_public_function_and_method():
    tree = ast.parse(
        "def dead(n):\n"
        "    return dead(n - 1)\n"  # its own recursion is not a use
        "def named():\n"
        "    pass\n"
        "def scripted():\n"
        "    pass\n"
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.live()\n"
        "    def live(self):\n"
        "        pass\n"
        "    def get_flat(self):\n"
        "        pass\n"
    )
    script = ast.parse("from m import scripted\nscripted()\n")
    found = unreferenced_public_defs({"m.py": tree}, [script], "call `named()` first")
    assert found == [("m.py", "dead", 1), ("m.py", "Model.get_flat", 12)]


def test_only_pipeline_run_makes_out_dir_or_writes_the_manifest():
    assert writes_outside_run(parse(PACKAGE / "pipeline.py")) == []


def test_scan_finds_a_mkdir_or_manifest_outside_run():
    tree = ast.parse(
        "def run(cfg, stage):\n"
        "    cfg.out_dir.mkdir()\n"
        "    dataio.write_manifest(cfg.out_dir)\n"
        "def run_fit(cfg):\n"
        "    def write(out):\n"
        "        out.mkdir(parents=True)\n"  # a nested writer is still outside run
        "    return write\n"
        "def run_curves(cfg):\n"
        "    write_manifest(cfg.out_dir)\n"
        "Path('x').mkdir()\n"
    )
    assert writes_outside_run(tree) == [("run_fit", 6), ("run_curves", 9), ("<module>", 10)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rng.py"], ids=lambda p: p.name)
def test_only_rng_builds_a_stream(path):
    assert stream_builds(parse(path)) == []


def test_scan_finds_a_stream_built_outside_rng():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.random import Philox\n"
        "def draws(rng: np.random.Generator, seed):\n"  # an annotation builds nothing
        "    key = np.random.SeedSequence([seed, 1]).generate_state(1)[0]\n"
        "    return np.random.default_rng(key), Philox(key)\n"
        "STREAM = np.random.Generator(np.random.PCG64())\n"
    )
    found = sorted(stream_builds(tree), key=lambda f: (f[1], f[0]))
    assert found == [("SeedSequence", 4), ("Philox", 5), ("default_rng", 5), ("Generator", 6)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "tensor.py"], ids=lambda p: p.name
)
def test_only_tensor_decomposes(path):
    assert eigensolves(parse(path)) == []


def test_scan_finds_an_eigensolve_outside_tensor():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh as ev\n"
        "def axes(m):\n"
        "    w, v = np.linalg.eigh(m)\n"
        "    return eigh3_batch(m), np.linalg.eig(m), ev(m), np.linalg.svd(m)\n"
    )
    assert eigensolves(tree) == [("eigvalsh", 2), ("eigh", 4), ("eig", 5)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in MATRIX_MODULES], ids=lambda p: p.name
)
def test_only_tensor_and_simulation_build_matrices(path):
    assert matrix_builds(parse(path)) == []


def test_scan_finds_a_matrix_built_in_fitting():
    source = (PACKAGE / "fitting.py").read_text()
    call = "eigh3_batch(elements)"
    assert source.count(call) == 1  # fixture sanity
    line = source[: source.index(call)].count("\n") + 1
    mutated = ast.parse(source.replace(call, "eigh3_batch(elements_to_matrices(elements))"))
    assert matrix_builds(mutated) == [("elements_to_matrices", line)]


def test_only_the_mask_draw_reads_the_dropout_rate():
    found = [(p.name, scope, line) for p in MODULES
             for scope, line in attribute_reads(parse(p), "dropout_rate")]
    assert [f for f in found if f[:2] not in RATE_READERS] == []
    assert sorted({f[:2] for f in found}) == sorted(RATE_READERS)  # the scan sees each


def test_scan_finds_a_dropout_rate_read_in_forward():
    source = (PACKAGE / "mlp.py").read_text()
    call = "_stack_forward(self.main_w, self.main_b, x, masks)"
    assert source.count(call) == 1  # fixture sanity
    line = source[: source.index(call)].count("\n") + 1
    mutated = ast.parse(source.replace(
        call, "_stack_forward(self.main_w, self.main_b, x, masks, 1.0 - self.spec.dropout_rate)"
    ))
    reads = attribute_reads(mutated, "dropout_rate")
    assert [r for r in reads if ("mlp.py", r[0]) not in RATE_READERS] == [
        ("TwoBranchMlp.forward", line)
    ]


def test_only_init_the_mask_draw_and_train_draw_in_mlp():
    found = generator_draws(parse(PACKAGE / "mlp.py"))
    assert [f for f in found if f[0] not in DRAW_SCOPES] == []
    assert sorted({f[0] for f in found}) == sorted(DRAW_SCOPES)  # the scan sees each


def test_scan_finds_a_draw_put_into_predict_mc_dropout():
    source = (PACKAGE / "mlp.py").read_text()
    masks = "    masks = model.make_sample_masks([run_stream("
    assert source.count(masks) == 1  # fixture sanity
    line = source[: source.index(masks)].count("\n") + 1
    words = "    words = run_stream(seed, MC_DROPOUT, voxels[0]).bit_generator.random_raw(3)"
    found = generator_draws(ast.parse(source.replace(masks, words + "\n" + masks)))
    assert [f for f in found if f[0] not in DRAW_SCOPES] == [("predict_mc_dropout", line)]


def test_only_the_qr_paths_solve_in_fitting():
    found = attribute_reads(parse(PACKAGE / "fitting.py"), "solve")
    assert [f for f in found if f[0] not in SOLVE_READERS] == []
    assert sorted({f[0] for f in found}) == sorted(SOLVE_READERS)  # the scan sees each


def test_scan_finds_a_gram_solve_put_into_the_cholesky():
    source = (PACKAGE / "fitting.py").read_text()
    tail = "    return z.T, failed\n"
    assert source.count(tail) == 1  # fixture sanity
    line = source[: source.index(tail)].count("\n") + 3
    mutated = ast.parse(source.replace(tail, (
        "    if np.any(failed):\n"
        "        gram, rhs = _normal_equations(xt, w[failed], y[failed])\n"
        "        solved = np.linalg.solve(gram.transpose(2, 0, 1), rhs.T[..., None])\n"
        "        z[:, failed] = solved[..., 0].T\n"
        + tail
    )))
    reads = attribute_reads(mutated, "solve")
    assert [r for r in reads if r[0] not in SOLVE_READERS] == [("_normal_solve_batch", line)]


@pytest.mark.parametrize("name", ROW_AXIS_MODULES)
def test_row_kernels_use_no_blas_product(name):
    assert blas_products(parse(PACKAGE / name)) == []


def test_scan_finds_a_blas_product():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import dot\n"
        "def fit(x, y, w, opts):\n"
        "    beta = np.linalg.solve(x.T @ x, x.T.dot(y))\n"
        "    w @= x\n"
        "    a = np.einsum('ij,jk->ik', x, y, optimize=True) + np.matmul(x, y)\n"
        "    b = np.inner(x, y) + np.tensordot(x, y, 1) + dot(x, y)\n"
        "    return a, b, np.einsum('ij->i', x, **opts), np.einsum('ij,j->i', x, y)\n"
    )
    assert blas_products(tree) == [
        ("@", 4), ("dot", 4), ("@", 5), ("einsum", 6), ("matmul", 6),
        ("dot", 7), ("inner", 7), ("tensordot", 7), ("einsum", 8),
    ]


def test_scan_finds_a_blas_product_put_into_fitting():
    source = (PACKAGE / "fitting.py").read_text()
    contraction = 'np.einsum("jm,km->jk", xt, w * y)'
    assert source.count(contraction) == 1  # fixture sanity
    line = source[: source.index(contraction)].count("\n") + 1
    mutated = ast.parse(source.replace(contraction, "xt @ (w * y).T"))
    assert blas_products(mutated) == [("@", line)]


@pytest.mark.parametrize("stage", SCORING_STAGES)
def test_scoring_stages_do_not_read_signals(stage):
    calls = function_calls([parse(PACKAGE / "pipeline.py"), parse(PACKAGE / "dataio.py")])
    assert stage in calls  # fixture sanity
    assert reached_calls(calls, stage, "read_dataset") == []
    assert reached_calls(calls, stage, "read_dataset_truth") != []  # the scan sees the read


def test_scan_finds_a_signal_read_put_into_the_truth_read():
    source = (PACKAGE / "pipeline.py").read_text()
    read = "dataio.read_dataset_truth(path)"
    assert source.count(read) == 1  # fixture sanity
    line = source[: source.index(read)].count("\n") + 1
    mutated = ast.parse(source.replace(read, "dataio.read_dataset(path)[::2]"))
    calls = function_calls([mutated, parse(PACKAGE / "dataio.py")])
    for stage in SCORING_STAGES:
        assert reached_calls(calls, stage, "read_dataset") == [("_read_truth_dataset", line)]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_only_write_manifest_hashes_files(path):
    assert calls_outside(parse(path), ("sha256_file",), "write_manifest") == []


def test_scan_finds_a_file_hash_outside_write_manifest():
    source = (PACKAGE / "dataio.py").read_text()
    write = '    write_header_blocks(path, "predictions", header, [table])\n'
    assert source.count(write) == 1  # fixture sanity
    line = source[: source.index(write)].count("\n") + 2
    mutated = ast.parse(source.replace(write, write + '    header["sha256"] = sha256_file(path)\n'))
    found = calls_outside(mutated, ("sha256_file",), "write_manifest")
    assert found == [("write_predictions", line)]


def test_only_the_loader_reads_and_checks_a_scored_table():
    tree = parse(PACKAGE / "pipeline.py")
    assert calls_outside(tree, SCORED_READS, *SCORED_LOADERS) == []
    found = {function for function, _ in calls_outside(tree, SCORED_READS)}
    assert sorted(found) == sorted(SCORED_LOADERS)  # the scan sees each


def test_scan_finds_a_table_read_put_into_run_curves():
    source = (PACKAGE / "pipeline.py").read_text()
    load = '    (view,) = _load_scored(cfg, "curves.predictions")\n'
    assert source.count(load) == 1  # fixture sanity
    line = source[: source.index(load)].count("\n") + 2
    read = '    header, table = dataio.read_predictions(cfg.get("curves.predictions"))\n'
    mutated = ast.parse(source.replace(load, load + read))
    assert calls_outside(mutated, SCORED_READS, *SCORED_LOADERS) == [("run_curves", line)]
