"""The package's public names: ``__all__`` is the star import, with no stale entry."""

from __future__ import annotations

import kernel_repair


def test_all_lists_each_package_name_once_and_the_star_import_binds_them():
    names = kernel_repair.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(kernel_repair, name)]
    assert missing == []
    namespace: dict = {}
    exec("from kernel_repair import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
