"""Project metadata and the ``repro`` console script.

``pip install -e .`` installs the package from ``src/``; nothing outside the
standard library is needed to run it (the tests also need ``pytest`` and
``hypothesis``).  Python 3.10 is the floor: the simulator uses
``@dataclass(slots=True)``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of Constable (ISCA 2024)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
