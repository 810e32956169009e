"""Legacy setup shim: the offline environment's setuptools lacks bdist_wheel,
so editable installs go through this file instead of PEP 517."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "AtLarge: an executable reproduction of the ATLARGE design framework "
        "for massivizing computer systems (ICDCS 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
)
