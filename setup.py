"""Setup shim: lets ``pip install -e .`` work offline (no wheel package).

Declares the ``src/`` package layout so an editable install exposes
``repro`` without the ``PYTHONPATH=src`` workaround; pytest
configuration lives in pytest.ini (not pyproject.toml, which would
force pip onto the PEP 517 editable path that needs ``wheel``).
"""
from setuptools import find_packages, setup

setup(
    name="repro-fle-rational-rings",
    version="1.1.0",
    description=(
        "Reproduction of 'Fair Leader Election for Rational Agents in "
        "Asynchronous Rings and Networks' (Yifrach & Mansour, PODC 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
