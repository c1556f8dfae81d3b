"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that editable installs work in offline
environments that lack the ``wheel`` package required by PEP 660 editable
builds (``pip install -e .`` then falls back to the legacy ``setup.py
develop`` path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Formal synthesis of monitoring and detection systems for secure CPS "
        "implementations (DATE 2020 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    # The LP backend passes its models to scipy.optimize._highspy._core
    # through the array passModel overload (verified on scipy 1.17.1, which
    # itself needs Python 3.11).
    install_requires=["numpy>=1.23", "scipy>=1.17.1"],
    extras_require={
        # matplotlib backs the optional ExplorationReport.plot_front helper
        # (exercised headless in CI); the library runs without it.
        "dev": ["pytest", "pytest-benchmark", "ruff", "matplotlib"],
    },
)
