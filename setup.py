"""Setuptools entry point (kept for offline legacy editable installs)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="SplitFS (SOSP 2019) reproduction: simulated PM file-system stack",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    # The tier-1 suite's property tests need hypothesis; CI installs
    # ".[test]" in every job so a clean runner collects every module.
    extras_require={"test": ["pytest", "hypothesis"]},
)
