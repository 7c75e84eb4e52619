"""Setuptools shim.

The project's only packaging metadata: plain ``setup.py`` so that
``pip install -e .`` keeps working on environments whose setuptools cannot
build PEP 660 editable wheels (e.g. offline machines without the ``wheel``
package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Efficient Maintenance of Materialized Mediated "
        "Views' (Lu, Moerkotte, Schu, Subrahmanian, SIGMOD 1995)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    extras_require={
        # The tier-1 suite's property tests (tests/constraints, tests/
        # maintenance, tests/datalog/test_support_index.py) need hypothesis.
        "test": ["pytest", "hypothesis"],
    },
)
