"""Package metadata: ``pip install -e .`` installs ``repro`` from ``src/``.

This file is the only build configuration (there is no pyproject.toml).
The runtime needs only numpy; the test suite also needs pytest and
hypothesis."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Probabilistic inference over RFID streams in mobile environments "
        "(reproduction of Tran et al., ICDE 2009)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
)
