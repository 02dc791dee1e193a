"""The bytes of ``sweep --format json``, pinned by digest.

A small battery of sweeps, the seven kernel checkers, lucas and
harmonic-sp, is run as stated, and the kernel checkers once more perturbed
so that each reports failing rows, with their residues at q = 1 and first
coefficients.  A second battery runs corollary, qbin-prop and generalized
at m = 30 and 210, whose several primes give the kernel's field large
radicals and many other cyclotomic components in its lifts.  Each document
is rendered as the CLI renders it, with the time fields masked, and its
SHA-256 is compared with a digest recorded from an earlier tree: a change
to the kernel that keeps every verdict but moves a residue, a first
coefficient or the row order fails here.
"""

import hashlib
from fractions import Fraction

import pytest

from qapery import checks
from qapery.cli import SweepSpec, _document_text, run_sweep

BATTERY = {
    "ljunggren": {"n": (1, 5, 1), "a": (0, 4, 1), "b": (0, 3, 1)},
    "wolstenholme-q": {"n": (1, 12, 1)},
    "qbin-prop": {"m": (2, 7, 1), "n": (0, 3, 1), "k": (0, 2, 1), "j": (1, 6, 1)},
    "main": {"m": (1, 3, 1), "n1": (0, 1, 1), "n2": (0, 1, 1), "n3": (0, 1, 1), "n4": (0, 2, 1)},
    "corollary": {"m": (1, 6, 1), "n": (0, 3, 1)},
    "generalized": {"m": (1, 4, 1), "n": (0, 2, 1), "lambda": (2, 4, 1), "mu": (0, 4, 1)},
    "s1s2": {"m": (1, 3, 1), "n1": (0, 1, 1), "n2": (0, 1, 1), "n3": (0, 1, 1), "n4": (0, 2, 1)},
    "lucas": {"n": (2, 4, 1), "a": (0, 2, 1), "b": (0, 3, 1), "r": (0, 2, 1), "s": (0, 3, 1)},
    "harmonic-sp": {"n": (2, 12, 1)},
}
# many-prime moduli: m = 30 = 2 3 5 and 210 = 2 3 5 7
MANY_PRIMES = {
    "corollary": {"m": (30, 210, 180), "n": (1, 2, 1)},
    "qbin-prop": {"m": (30, 30, 1), "n": (0, 2, 1), "k": (0, 1, 1), "j": (1, 29, 7)},
    "generalized": {"m": (30, 30, 1), "n": (1, 2, 1), "lambda": (2, 3, 1), "mu": (0, 2, 1)},
}
CHOICES = {"harmonic-sp": {"which": ["sp1", "sp2", "sp3"]}}


def plus_one(f):
    return lambda *args: f(*args) + 1


def last_plus_one(f):
    def perturbed(*args):
        rhs = f(*args)
        return rhs[:-1] + [rhs[-1] + 1]
    return perturbed


# the name in ``checks`` that a kernel checker's perturbed sweep raises by one;
# lucas and harmonic-sp read none of them and are swept as stated only
PERTURBED = {
    "ljunggren": ("binom", plus_one),
    "qbin-prop": ("binom", plus_one),
    "main": ("correction_R_multivariate", plus_one),
    "corollary": ("correction_R_lambda_mu", plus_one),
    "generalized": ("correction_R_lambda_mu", plus_one),
    "wolstenholme-q": ("_cube_rhs", last_plus_one),
    "s1s2": ("_cube_rhs", last_plus_one),
}

# recorded from the tree before the kernel read its q-integer leads in closed form
DIGESTS = {
    ("corollary", False): "218bb1f79e06530ce4c01f6e819352eae100d515fc6bd62f828360cf566f8b9f",
    ("corollary", True): "48c0087366b01f584cfce098a4b9dc0651cd7e4c0de1f1a24e6edc4deeb4d1f1",
    ("generalized", False): "2aa39ffe6da1f75984f760e40e139642c116198e3871a0d4deeaa416a78a91d9",
    ("generalized", True): "a1ffd94aa56e1f5e96c6be02616ef72425ada55aceff58da4c95cfa4c222704f",
    ("harmonic-sp", False): "bebacb4ac7465c25ea3f37dcc037f50da5bc87190e88a9eaa844388dbae4e2c2",
    ("ljunggren", False): "a3943d501ec66f787ae453ab31b402186b2fce4abec68e1c523b2157b5bc2c01",
    ("ljunggren", True): "8373868394a71501301518580145d54fa8680b1f20d2bc7d20cebb8400d4cf17",
    ("lucas", False): "215bc2afb5c570885cc85101e2a4dece37e5f5dd9baeab391df65d2dc1106664",
    ("main", False): "ce148534a2241b62eeefc2ed4c5b11c8e0ad6ff4963538066c0233c55ea9e7e2",
    ("main", True): "d4f7c81b046ff08f483398bd6b83c1d9d2c248d396ebbbf4d5ece86dc82d4519",
    ("qbin-prop", False): "d71cf66b2272f9475b49faba0a72e7a7f1c6ec6579a1c5a91cbd83c2a160eed0",
    ("qbin-prop", True): "f058fecadff95011b189ad776077941cf923101ec05f07b0232bbaa68dc59d0a",
    ("s1s2", False): "8518887c44881f2a3b7a243a83ad44e8b9e0d4953b6a826f169be22a40e0671b",
    ("s1s2", True): "6fae23735ddf918100a76fce8272e3fbcf100bd71df9c12f83ca85fce58e6c73",
    ("wolstenholme-q", False): "3c2d7ac073597b22013de879ab940bb3ef0fac67acefd25e94cef6ed46ad4390",
    ("wolstenholme-q", True): "8f1f04afaa53cdc4275b16ad356517c4dcdd29b7fce3522f802474e49ad29226",
}

# recorded from the tree whose field kept its elements projected by rad E
MANY_PRIME_DIGESTS = {
    ("corollary", False): "8563ef572ca1dd526291b0c9b8d172efdb636128c16f77ce72935b458e942a22",
    ("corollary", True): "101dd15148598d715e9c73ae29ca8b90acd333d41f415bce8e66d2f90add4d31",
    ("generalized", False): "dbf1176d978c777013f4b3a80f4565c7afe6c92c2e0ad427fbd14c453f801280",
    ("generalized", True): "3a44163b5af667d77abcff4d6fc269459537c46a99065f494fdad806a0049159",
    ("qbin-prop", False): "4a58fc11c446a6ec00954c51fcdcee1e87ba27bbc1d8a4daac3f8fd6b80d3e8f",
    ("qbin-prop", True): "ad4ec9fcec051c527d0a95b00838b51650e21fca6827107e0ad91b3936d0b4d4",
}


def masked_json(document):
    for row in document["results"]:
        row["elapsed_ms"] = 0
    document["summary"]["elapsed_ms"] = document["summary"]["wall_ms"] = 0
    return _document_text(document, "json")


def sweep_digest(monkeypatch, name, ranges, perturbed):
    """The digest of the masked JSON of a sweep of ``name`` over ``ranges``,
    perturbed by ``PERTURBED`` when asked, checking its rows on the way."""
    if perturbed:
        attribute, wrap = PERTURBED[name]
        monkeypatch.setattr(checks, attribute, wrap(getattr(checks, attribute)))
    spec = SweepSpec(name, ranges=ranges, choices=CHOICES.get(name, {}), output_format="json")
    document = run_sweep(spec)
    if perturbed:
        assert document["summary"]["failed"] > 0
    assert all(Fraction(row["residue_at_one"]) == 0 for row in document["results"] if row["holds"])
    return hashlib.sha256(masked_json(document).encode()).hexdigest()


def ids(digests):
    return ["%s-%s" % (n, "perturbed" if p else "stated") for n, p in sorted(digests)]


@pytest.mark.parametrize("name, perturbed", sorted(DIGESTS), ids=ids(DIGESTS))
def test_sweep_json_is_byte_identical(monkeypatch, name, perturbed):
    assert sweep_digest(monkeypatch, name, BATTERY[name], perturbed) == DIGESTS[name, perturbed]


@pytest.mark.parametrize("name, perturbed", sorted(MANY_PRIME_DIGESTS), ids=ids(MANY_PRIME_DIGESTS))
def test_many_prime_sweep_json_is_byte_identical(monkeypatch, name, perturbed):
    assert sweep_digest(monkeypatch, name, MANY_PRIMES[name], perturbed) \
        == MANY_PRIME_DIGESTS[name, perturbed]
