"""Setup shim.

All metadata lives in pyproject.toml.  ``pip install -e .`` builds through
setuptools and needs the ``wheel`` package; where ``wheel`` is missing and
cannot be fetched, ``python setup.py develop`` installs the same editable
package and ``repro`` script through this shim.
"""

from setuptools import setup

setup()
