"""Published bytes pinned across versions.

The DP sha256 values below were recorded at 5.1.0, before the SPS and DP
chunk kernels became array operations, and every later version must
reproduce them: published bytes are a pure function of ``(strategy, params,
seed, chunk_size)``.  The SPS-family values (``sps`` and ``generalize+sps``:
published CSVs, the adult group records and the sps delta chains) were
re-recorded at 8.0.0, deliberately: SPS now draws once per phase per chunk
(sampling, retention, replacement, scaling) instead of per group, so the
same seed gives other coin tosses.  The census group records did not change:
census has no sampled group at the default spec, so its records depend on
no draw.  The values they replace still held at 7.0.0.
Each group strategy is published through ``repro.publish``
and through ``stream_publish`` at one and two workers, which must all give
the same bytes.  The adult sample has sampled groups (``|g| > s_g``), so the
SPS sampling and scaling draws are pinned too; ``report.records`` is pinned
through a digest of one tuple per group built from its arrays.  A two-append delta chain pins the splice
path for one SPS and one DP strategy.  The two ``uniform`` hashes, the one
row-stream strategy, were recorded at 6.0.0; ``repro.publish`` replays the
table through the same row path ``stream_publish`` replays its spool with.
"""

import hashlib
from pathlib import Path

import pytest

import repro
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.loaders import read_csv, write_csv
from repro.delta import delta_publish, publish_base
from repro.stream import stream_publish

SEED = 11
DELTA_SEED = 5

DATASETS = {
    "adult": (generate_adult, 10_000),
    "census": (generate_census, 5_000),
}

#: sha256 of the published CSV, identical through every path (``uniform``
#: recorded at 6.0.0, the SPS family at 8.0.0, DP at 5.1.0).
PUBLISHED = {
    ("adult", "sps"): "fb5669763a97c6c2f68fb640aa2486a3287cc53fc4c0af8876a69366aa0c655c",
    ("adult", "generalize+sps"): "9d84b56e7c3b9426869495196adcbf3cefe054805f7cf396b19b78bbdb17968e",
    ("adult", "dp-laplace"): "7713cf3560b4570b95f099371d8afa3999d71f9a93c2838b84a8d0f58ed96ccf",
    ("adult", "dp-gaussian"): "a451df2aef34166e7ddc1cb3fb8ec29ae2de9bd1c76c558fa5f9f2b87703aaed",
    ("census", "sps"): "0a60b2ec210edc2f6da4f1fb154741ee97ba9c63c7b59059ce61abcde050a939",
    ("census", "generalize+sps"): "616e71feec45ae7a4e61c562cda042770945d42d4b663d295fd2d452e36fdfea",
    ("census", "dp-laplace"): "bab80244a2a5817b0efdd66ea6f25d2efb24d8589c14ec3cabc2f7022ce75fdd",
    ("census", "dp-gaussian"): "72f75501f0c3b061c4ae778d9ad13b7371fb9dc318dd4f1651e123b3c58041d8",
    ("adult", "uniform"): "2394a114ad5744b95cd622760808387b95e69c54256456311249669aec5eac1b",
    ("census", "uniform"): "cebb1750a95bf54345fe2a04f3bb0d3a0885793f364677f9722b1a93b2265162",
}

#: (number of sampled groups, sha256 of the repr of every group's record tuple).
GROUP_RECORDS = {
    ("adult", "sps"): (15, "6386e6c0941290522cad415c7ac5ae4dcdc8921b6ae5dae39b1a8c0d3ce569ec"),
    ("adult", "generalize+sps"): (9, "92dc66df0bce51e1d35efe16e260899acf520905610d48e649ceef0bca999dfa"),
    ("census", "sps"): (0, "88493696cd928d9bbbdab35cb6ab857f069ab73b5125f436a530da698f5148c1"),
    ("census", "generalize+sps"): (0, "878365f16da4eb2ab11f520b0ee0c0a3b0fc89f93401b968d23a0b45f4b834c9"),
}

#: sha256 of the published CSV after the base publish and after each append.
DELTA_CHAIN = {
    ("adult", "sps"): (
        "9dd19b186e9c044944a3252cd6e44e6f50a4be47390d3f3fcebb4af8c3830bd5",
        "9b7e88501a0c45845aac651711ac0c8f20fbdedb56b4eea40510c7274286ef4b",
        "e8bc51248f5f55b5fbac30c4da372a1fdf5c969dcbf53c2ae5db202d22946de6",
    ),
    ("adult", "dp-laplace"): (
        "a07b082387110642ab51b76e519d3598ebc937bea542142ff114d78d2583775f",
        "870fe4e7c0e1741c60a6cc125a4ca628d1f4d7a65061fb26c8fa2f2719d34437",
        "7d758a5bfc6e0b3a2f1d8c71cd386ea4f985be065e4b643d73ba20d639f4ff9e",
    ),
    ("census", "sps"): (
        "1cca27c839e4814e8696e7452d3550146070475d5c750623e4ce14b66cb292e2",
        "989ae5b529a67e97a1184ce443b31e829962e4fffdae3ba8566f14deece38c14",
        "8cbee96235035d86e7d4f57e528579087f5319098677f6ff828242bedd492d3d",
    ),
    ("census", "dp-laplace"): (
        "e6f43135c626699a00ebd5e179f2284fe276b3dcd941eb927c98d17aa0196f2b",
        "fe36c6764e93bf167404c4da6c783587847a8fc1bdf38f41ca037487de14cd83",
        "a7e564e30cb353c2060cbc75c65d2b9461d4fd52efb05b8c62a2bbb28bf6f745",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Each data set written to CSV once: ``name -> (path, sensitive column)``."""
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (generate, rows) in DATASETS.items():
        path = directory / f"{name}.csv"
        write_csv(generate(rows, seed=1), path)
        paths[name] = (path, path.read_text().split("\n", 1)[0].split(",")[-1].strip())
    return paths


@pytest.mark.parametrize("dataset,strategy", sorted(PUBLISHED))
def test_publish_and_stream_bytes(sources, tmp_path, dataset, strategy):
    source, sensitive = sources[dataset]
    report = repro.publish(read_csv(source, sensitive=sensitive), strategy=strategy, rng=SEED)
    write_csv(report.published, tmp_path / "publish.csv")
    assert _sha256(tmp_path / "publish.csv") == PUBLISHED[dataset, strategy]
    for workers in (1, 2):
        output = tmp_path / f"stream-{workers}.csv"
        stream_publish(
            source, sensitive=sensitive, strategy=strategy, rng=SEED, workers=workers, output=output
        )
        assert _sha256(output) == PUBLISHED[dataset, strategy], f"workers={workers}"
    if (dataset, strategy) in GROUP_RECORDS:
        n_sampled, digest = GROUP_RECORDS[dataset, strategy]
        records = report.records
        fields = list(zip(
            map(tuple, records.keys.tolist()), records.sizes.tolist(),
            records.thresholds.tolist(), records.sampled.tolist(),
            records.sample_sizes.tolist(), records.published_sizes.tolist(),
        ))
        assert report.n_sampled_groups == n_sampled
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest
    else:
        assert report.records is None


@pytest.mark.parametrize("dataset,strategy", sorted(DELTA_CHAIN))
def test_two_append_delta_chain_bytes(sources, tmp_path, dataset, strategy):
    source, sensitive = sources[dataset]
    lines = source.read_text().splitlines(keepends=True)
    first, second = int(len(lines) * 0.8), int(len(lines) * 0.9)
    parts = [lines[:first], lines[:1] + lines[first:second], lines[:1] + lines[second:]]
    for i, part in enumerate(parts):
        (tmp_path / f"part{i}.csv").write_text("".join(part))
    output = tmp_path / "published.csv"
    report = publish_base(
        tmp_path / "part0.csv", sensitive=sensitive, output=output, strategy=strategy, rng=DELTA_SEED
    )
    chain = [_sha256(output)]
    for i in (1, 2):
        report = delta_publish(report.state, tmp_path / f"part{i}.csv")
        chain.append(_sha256(output))
    assert tuple(chain) == DELTA_CHAIN[dataset, strategy]
