"""Setuptools entry point.

A classic setup.py is used (rather than a PEP 517 build-system table in
pyproject.toml) so that ``pip install -e .`` works in offline environments
without the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Cox & Fowler, 'Adaptive Cache Coherency for "
        "Detecting Migratory Shared Data' (ISCA 1993)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-fuzz=repro.conformance.cli:main",
            "repro-stats=repro.telemetry.cli:main",
            "repro-serve=repro.service.cli:main",
            "repro-verify=repro.verification.cli:main",
        ]
    },
)
