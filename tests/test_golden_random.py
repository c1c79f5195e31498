"""Golden ``bounds --json --rates`` output on seeded random matrices.

``test_golden.py`` pins the seven built-in tables only.  These pins cover
both planners, the exact LP and the closed form, away from them, on
strict-gap matrices with K=4..8 drawn from fixed seeds.  Five have one
Copeland winner, where lambda and lambda_tilde may differ; four have
several ("multi" marks those drawn to have at least two).  Each matrix is
written with ``save_matrix`` (full binary precision) and read back
through ``--input``.  A refactor or speed-up must leave every pin
unchanged.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_matrix, random_tied_winner_matrix
from duelbench.cli import main
from duelbench.core import save_matrix

#: (kind, K, seed) -> sha256 of ``bounds --input <kind>_k<K>_s<seed>.csv --json --rates`` stdout
PINS = {
    ("strict", 4, 1): "7e74712bdd5151de931021e4e2fbfb14736b3b912a36e73cd4e67843d9509ac3",
    ("strict", 5, 3): "56166ef7e742fde4b0e576d2a2b0f75fc54ec9685d8572797b28dd77e1ef22f1",
    ("strict", 6, 0): "166e43a02737d024c46cce1f49a540b4701f818dbb744d12d4fd272e2fda6d30",
    ("strict", 7, 2): "d6492f756fb860a6f50a9db6ca295d664f326537400306285baf6cf8b4477d77",
    ("strict", 7, 3): "657ac17b4d7eccc9a31442718d69edd9132cbf64809ad6e04f4fe6c5eabca06b",
    ("strict", 8, 0): "ffdd0144855efea819081ad6db51ca4e825495936ad078ebbcb42bce19c9750a",
    ("multi", 4, 5): "cdc3a5e9b61f002e8b4c0fe407acec80cf858096ccb99c42c5cf16972747c5e2",
    ("multi", 6, 6): "c7d99f5161bbb7313c78afa97d8739b6c5386817fd74b342fd61e69801bfe641",
    ("multi", 8, 7): "2350870d3496ac22421e3eedd896e422912591a026b5b54b58a50a8c8d820b0c",
}

MAKERS = {"strict": random_matrix, "multi": random_tied_winner_matrix}


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "-".join(map(str, c)))
def test_bounds_json_rates_bytes(capsys, tmp_path, case):
    kind, k, seed = case
    path = tmp_path / f"{kind}_k{k}_s{seed}.csv"
    save_matrix(MAKERS[kind](np.random.default_rng(seed), k), path)
    code = main(["bounds", "--input", str(path), "--json", "--rates"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS[case]
