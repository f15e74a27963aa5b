"""Legacy setup shim.

The container has no network and no ``wheel`` package, so PEP-517 editable
installs fail at ``bdist_wheel``. ``pip install -e . --no-use-pep517
--no-build-isolation`` (or plain ``pip install -e .`` — see pip.conf note
in README) takes the ``setup.py develop`` path, which needs only
setuptools.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # Compiled on first import (repro/core/_kernels.py).
    package_data={"repro.core": ["_kernels.c"]},
    python_requires=">=3.11",
)
